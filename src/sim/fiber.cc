#include "sim/fiber.hh"

#include <cstdint>
#include <cstring>

#include "sim/logging.hh"

// The raw x86-64 switch is bypassed under ASan/TSan: the sanitizers
// intercept swapcontext and track fiber stacks through it, but they
// cannot see a hand-rolled stack switch.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define BBB_FIBER_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define BBB_FIBER_SANITIZED 1
#endif

#if defined(__x86_64__) && !defined(BBB_FIBER_SANITIZED)
#define BBB_FIBER_RAW_X86_64 1
#endif

namespace bbb
{

namespace
{
/** Fiber currently executing, or nullptr when in the scheduler. */
thread_local Fiber *gCurrent = nullptr;
} // namespace

#if BBB_FIBER_RAW_X86_64

// glibc's swapcontext makes two rt_sigprocmask syscalls per switch to
// save/restore the signal mask; at one suspend per simulated memory
// operation that dominated fiber cost. The simulator never changes the
// signal mask per fiber, so a register-only switch is sufficient: save
// the System V callee-saved GPRs plus the x87/SSE control words, swap
// stack pointers, restore, return. ~20 cycles instead of two syscalls.
extern "C" void bbbFiberSwitch(void **save_sp, void *load_sp);

asm(R"(
        .text
        .globl  bbbFiberSwitch
        .type   bbbFiberSwitch, @function
bbbFiberSwitch:
        pushq   %rbp
        pushq   %rbx
        pushq   %r12
        pushq   %r13
        pushq   %r14
        pushq   %r15
        subq    $8, %rsp
        stmxcsr (%rsp)
        fnstcw  4(%rsp)
        movq    %rsp, (%rdi)
        movq    %rsi, %rsp
        ldmxcsr (%rsp)
        fldcw   4(%rsp)
        addq    $8, %rsp
        popq    %r15
        popq    %r14
        popq    %r13
        popq    %r12
        popq    %rbx
        popq    %rbp
        retq
        .size   bbbFiberSwitch, .-bbbFiberSwitch
)");

namespace
{

/**
 * Build the initial frame bbbFiberSwitch restores on first entry: the
 * control words and six callee-saved slots it pops, then the trampoline
 * address its final `ret` consumes. The ret slot sits at a 16-byte
 * boundary so the trampoline starts with the stack alignment of an
 * ordinary `call`.
 */
void *
makeInitialFrame(unsigned char *stack_base, std::size_t stack_bytes,
                 void (*entry)())
{
    auto top = reinterpret_cast<std::uintptr_t>(stack_base + stack_bytes);
    top &= ~static_cast<std::uintptr_t>(15);
    auto *sp = reinterpret_cast<std::uint64_t *>(top);
    *--sp = 0; // filler: keeps the ret slot 16-byte aligned
    *--sp = reinterpret_cast<std::uint64_t>(entry);
    for (int i = 0; i < 6; ++i)
        *--sp = 0; // r15 r14 r13 r12 rbx rbp
    --sp;          // mxcsr + x87 control word
    std::uint32_t mxcsr;
    std::uint16_t fcw;
    asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fcw));
    std::memcpy(sp, &mxcsr, sizeof(mxcsr));
    std::memcpy(reinterpret_cast<unsigned char *>(sp) + 4, &fcw,
                sizeof(fcw));
    return sp;
}

} // namespace

#endif // BBB_FIBER_RAW_X86_64

Fiber::Fiber(Body body, std::size_t stack_bytes)
    : _stack(new unsigned char[stack_bytes]), _stack_bytes(stack_bytes),
      _body(std::move(body))
{
    BBB_ASSERT(stack_bytes >= 16 * 1024, "fiber stack too small");
}

Fiber::~Fiber()
{
    // A fiber destroyed while suspended simply abandons its stack; that is
    // fine as long as the body holds no resources needing unwinding. The
    // simulator only destroys fibers after completion or at teardown.
}

void
Fiber::trampoline()
{
    Fiber *self = gCurrent;
    self->_body();
    self->_finished = true;
    // Return to the most recent resumer; never come back.
#if BBB_FIBER_RAW_X86_64
    bbbFiberSwitch(&self->_sp, self->_caller_sp);
#else
    swapcontext(&self->_context, &self->_caller);
#endif
}

void
Fiber::resume()
{
    BBB_ASSERT(!_finished, "resuming a finished fiber");
    BBB_ASSERT(gCurrent == nullptr, "nested fiber resume not supported");

#if BBB_FIBER_RAW_X86_64
    if (!_started) {
        _started = true;
        _sp = makeInitialFrame(_stack.get(), _stack_bytes, &trampoline);
    }
    gCurrent = this;
    bbbFiberSwitch(&_caller_sp, _sp);
    gCurrent = nullptr;
#else
    if (!_started) {
        _started = true;
        getcontext(&_context);
        _context.uc_stack.ss_sp = _stack.get();
        _context.uc_stack.ss_size = _stack_bytes;
        _context.uc_link = nullptr;
        makecontext(&_context, reinterpret_cast<void (*)()>(&trampoline), 0);
    }

    gCurrent = this;
    swapcontext(&_caller, &_context);
    gCurrent = nullptr;
#endif
}

void
Fiber::yield()
{
    Fiber *self = gCurrent;
    BBB_ASSERT(self != nullptr, "Fiber::yield outside a fiber");
    gCurrent = nullptr;
#if BBB_FIBER_RAW_X86_64
    bbbFiberSwitch(&self->_sp, self->_caller_sp);
#else
    swapcontext(&self->_context, &self->_caller);
#endif
    gCurrent = self;
}

bool
Fiber::inFiber()
{
    return gCurrent != nullptr;
}

} // namespace bbb
