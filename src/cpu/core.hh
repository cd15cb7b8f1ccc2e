/**
 * @file
 * The timing core model and the thread context workloads run against.
 *
 * Each core executes one software thread, written as ordinary C++ running
 * on a fiber. The thread issues memory operations through its
 * ThreadContext; the core executes each operation on the fiber and
 * charges its simulated latency with a resume event. When that event is
 * provably the next one the queue would run, it fires in place and the
 * fiber carries on; otherwise the fiber suspends until the event fires.
 *
 * The model is a one-memory-op-at-a-time in-order core with a store buffer
 * (stores retire asynchronously, loads block). This reproduces the bbPB
 * pressure behaviour the paper studies — back-to-back persisting stores
 * stall only when the store buffer backs up on a full bbPB — without
 * modelling a full out-of-order pipeline (see DESIGN.md, substitutions).
 */

#ifndef BBB_CPU_CORE_HH
#define BBB_CPU_CORE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "cache/hierarchy.hh"
#include "cpu/mem_op.hh"
#include "cpu/store_buffer.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/fiber.hh"
#include "sim/op_gate.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

namespace bbb
{

class Core;

/**
 * The interface workload code uses to touch simulated memory. All calls
 * must be made from within the workload's fiber.
 */
class ThreadContext
{
  public:
    ThreadContext(Core &core, std::uint64_t seed);

    /** Load @p size (1..8) bytes; returns the zero-extended value. */
    std::uint64_t load(Addr addr, unsigned size);

    /** Store the low @p size bytes of @p value. */
    void store(Addr addr, unsigned size, std::uint64_t value);

    std::uint64_t load64(Addr a) { return load(a, 8); }
    std::uint32_t load32(Addr a) { return static_cast<std::uint32_t>(load(a, 4)); }
    void store64(Addr a, std::uint64_t v) { store(a, 8, v); }
    void store32(Addr a, std::uint32_t v) { store(a, 4, v); }

    /**
     * Explicit writeback of @p addr's block toward NVMM (clwb). A no-op
     * under eADR and BBB (Table I: no persist instructions needed); under
     * ADR/PMEM it is required for durability.
     */
    void writeBack(Addr addr);

    /** Persist barrier (sfence): order prior flushes before later stores.
     *  Also a no-op outside the ADR/PMEM mode. */
    void persistBarrier();

    /**
     * Full memory fence (mfence): drain the store buffer and wait for
     * outstanding flushes in *every* mode — unlike persistBarrier(),
     * which only the ADR/PMEM machine executes. Litmus tests use this
     * for the consistency-ordering fences of the TSO cases.
     */
    void fullFence();

    /** Burn @p cycles of compute time. */
    void compute(std::uint64_t cycles);

    /** Deterministic per-thread RNG. */
    Rng &rng() { return _rng; }

    /** The core this thread runs on. */
    CoreId coreId() const;

    /** Current simulated time (for instrumentation). */
    Tick now() const;

  private:
    Core &_core;
    Rng _rng;
};

/** One simulated core: fiber scheduler + store buffer + stats. */
class Core
{
  public:
    using ThreadBody = std::function<void(ThreadContext &)>;

    Core(CoreId id, const SystemConfig &cfg, EventQueue &eq,
         CacheHierarchy &hier, StatRegistry &stats);

    /** Bind the software thread this core will run. */
    void bindThread(ThreadBody body);

    /** Whether a software thread is bound (bindThread() allows one). */
    bool hasThread() const { return _fiber != nullptr; }

    /** Schedule the first fiber resume (idempotent). */
    void start();

    bool finished() const { return _finished; }
    Tick finishTick() const { return _finish_tick; }

    CoreId id() const { return _id; }
    StoreBuffer &storeBuffer() { return _sb; }
    const SystemConfig &config() const { return _cfg; }
    EventQueue &eventQueue() { return _eq; }
    CacheHierarchy &hierarchy() { return _hier; }

    /** Stop issuing work (crash): the fiber is abandoned mid-flight. */
    void halt() { _halted = true; }
    bool halted() const { return _halted; }

    /**
     * Install a schedule gate (see sim/op_gate.hh): every issued op
     * parks at commit time until releasePending() runs it. Install
     * before start(); a gated core stays gated.
     */
    void setOpGate(OpGate &gate) { _gate = &gate; }

    /** Execute the op parked by the gate (runner context). */
    void releasePending();

    std::uint64_t memOps() const { return _ops.value(); }

  private:
    friend class ThreadContext;

    /** Called from the fiber side: run the op, yielding if it waits. */
    std::uint64_t issueFromFiber(const MemOp &op);

    /** Resume the fiber (runs in simulator context). */
    void resumeFiber();

    /**
     * Try to start/complete the pending op; may set a wait state.
     * @param in_fiber true when called on this core's own fiber, which
     *        may then fire the op's resume event in place.
     * @return true if the resume fired in place (the fiber continues
     *         without yielding).
     */
    bool executePending(bool in_fiber);

    /** Store-buffer change notification: re-evaluate waits. */
    void onSbChange();

    CoreId _id;
    SystemConfig _cfg;
    EventQueue &_eq;
    CacheHierarchy &_hier;
    StoreBuffer _sb;

    ThreadContext _tc;
    std::unique_ptr<Fiber> _fiber;

    MemOp _pending;
    OpGate *_gate = nullptr;
    /** Issued clwb-style flushes not yet durable (fences wait on this). */
    unsigned _flushes_outstanding = 0;
    std::uint64_t _result = 0;
    bool _op_in_flight = false;
    bool _waiting_on_sb = false;
    bool _started = false;
    bool _finished = false;
    bool _halted = false;
    /** The seeded "flush-drop" litmus mutation (read once). */
    const bool _flush_drop;
    Tick _finish_tick = 0;
    Tick _wait_start = 0;

    StatCounter _ops;            ///< operations issued by the thread
    StatCounter _loads;
    StatCounter _stores;
    StatCounter _flushes;
    StatCounter _fences;
    StatCounter _sb_full_stalls; ///< stores stalled on a full store buffer
    StatCounter _stall_ticks;    ///< ticks waiting on the store buffer
};

} // namespace bbb

#endif // BBB_CPU_CORE_HH
