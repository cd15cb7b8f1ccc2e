/**
 * @file
 * Stackful coroutines ("fibers") for execution-driven simulation.
 *
 * Each simulated software thread runs on its own fiber so that workload
 * code can be ordinary C++ (function calls, loops, recursion) and still
 * suspend whenever it issues a simulated memory operation. The scheduler
 * (the core model) resumes the fiber when the operation's latency has
 * elapsed in simulated time.
 *
 * On x86-64 (without ASan/TSan, which need to see the switch) the switch
 * is a register-only stack swap: glibc's swapcontext saves and restores
 * the signal mask with two syscalls per switch, which dominated fiber
 * cost at one suspend per simulated memory operation. Other targets and
 * sanitized builds keep the POSIX ucontext implementation.
 */

#ifndef BBB_SIM_FIBER_HH
#define BBB_SIM_FIBER_HH

#include <ucontext.h>

#include <cstddef>
#include <functional>
#include <memory>

namespace bbb
{

/**
 * A cooperatively scheduled coroutine with its own stack.
 *
 * Lifecycle: constructed with a body; resume() switches into it; inside the
 * body, Fiber::yield() switches back to the resumer. When the body returns
 * the fiber becomes finished() and further resume() calls are errors.
 */
class Fiber
{
  public:
    using Body = std::function<void()>;

    /** @param stack_bytes stack size; workloads with recursion (rtree)
     *  need a comfortable margin, so default generously. */
    explicit Fiber(Body body, std::size_t stack_bytes = 256 * 1024);
    ~Fiber();

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /** Switch into the fiber until it yields or finishes. */
    void resume();

    /** Called from inside a fiber body: switch back to the resumer. */
    static void yield();

    /** True once the body has returned. */
    bool finished() const { return _finished; }

    /** True if called from inside any fiber body. */
    static bool inFiber();

  private:
    static void trampoline();

    // Raw x86-64 switch state: the suspended stack pointers of the fiber
    // and of whoever resumed it (unused when the ucontext path is built).
    void *_sp = nullptr;
    void *_caller_sp = nullptr;
    ucontext_t _context;
    ucontext_t _caller;
    // Left uninitialised: a machine starts one fiber per simulated
    // thread on every install and resume, and zero-filling each 256 KiB
    // stack cost more than the whole install.
    std::unique_ptr<unsigned char[]> _stack;
    std::size_t _stack_bytes;
    Body _body;
    bool _started = false;
    bool _finished = false;
};

} // namespace bbb

#endif // BBB_SIM_FIBER_HH
