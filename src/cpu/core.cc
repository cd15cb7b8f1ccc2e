#include "cpu/core.hh"

namespace bbb
{

// ---------------------------------------------------------------------
// ThreadContext
// ---------------------------------------------------------------------

ThreadContext::ThreadContext(Core &core, std::uint64_t seed)
    : _core(core), _rng(seed)
{
}

CoreId
ThreadContext::coreId() const
{
    return _core.id();
}

Tick
ThreadContext::now() const
{
    return _core._eq.now();
}

std::uint64_t
ThreadContext::load(Addr addr, unsigned size)
{
    MemOp op;
    op.kind = OpKind::Load;
    op.addr = addr;
    op.size = size;
    return _core.issueFromFiber(op);
}

void
ThreadContext::store(Addr addr, unsigned size, std::uint64_t value)
{
    MemOp op;
    op.kind = OpKind::Store;
    op.addr = addr;
    op.size = size;
    op.data = value;
    _core.issueFromFiber(op);

    // Strict persistency on an ADR/PMEM machine: every persisting store
    // is followed by clwb + sfence (Section II-A / Figure 3).
    const SystemConfig &cfg = _core.config();
    if (cfg.mode == PersistMode::AdrPmem && cfg.pmem_auto_strict &&
        _core.hierarchy().addrMap().isPersistent(addr)) {
        writeBack(addr);
        persistBarrier();
    }
}

void
ThreadContext::writeBack(Addr addr)
{
    // Only the ADR/PMEM machine needs (and executes) explicit flushes;
    // under eADR and BBB the instruction is never emitted (Table I).
    if (_core.config().mode != PersistMode::AdrPmem)
        return;
    MemOp op;
    op.kind = OpKind::Flush;
    op.addr = addr;
    op.size = 1;
    _core.issueFromFiber(op);
}

void
ThreadContext::persistBarrier()
{
    if (_core.config().mode != PersistMode::AdrPmem)
        return;
    MemOp op;
    op.kind = OpKind::Fence;
    _core.issueFromFiber(op);
}

void
ThreadContext::fullFence()
{
    MemOp op;
    op.kind = OpKind::Fence;
    _core.issueFromFiber(op);
}

void
ThreadContext::compute(std::uint64_t cycles)
{
    if (cycles == 0)
        return;
    MemOp op;
    op.kind = OpKind::Advance;
    op.cycles = cycles;
    _core.issueFromFiber(op);
}

// ---------------------------------------------------------------------
// Core
// ---------------------------------------------------------------------

Core::Core(CoreId id, const SystemConfig &cfg, EventQueue &eq,
           CacheHierarchy &hier, StatRegistry &stats)
    : _id(id), _cfg(cfg), _eq(eq), _hier(hier),
      _sb(id, cfg, eq, hier, stats),
      _tc(*this, cfg.seed * 1315423911u + id)
{
    _sb.setOnChange([this]() { onSbChange(); });
    _sb.setOutOfOrderDrain(cfg.relaxed_consistency);

    StatGroup &g = stats.group("core" + std::to_string(id));
    g.addCounter("ops", &_ops, "operations issued by the thread");
    g.addCounter("loads", &_loads, "");
    g.addCounter("stores", &_stores, "");
    g.addCounter("flushes", &_flushes, "");
    g.addCounter("fences", &_fences, "");
    g.addCounter("sb_full_stalls", &_sb_full_stalls,
                 "stores stalled on a full store buffer");
    g.addCounter("stall_ticks", &_stall_ticks,
                 "ticks spent waiting on the store buffer");
}

void
Core::bindThread(ThreadBody body)
{
    BBB_ASSERT(!_fiber, "core %u already has a thread", _id);
    _fiber = std::make_unique<Fiber>([this, body = std::move(body)]() {
        body(_tc);
    });
}

void
Core::start()
{
    if (_started || !_fiber)
        return;
    _started = true;
    _eq.scheduleIn(0, [this]() { resumeFiber(); }, EventPriority::CoreOp);
}

std::uint64_t
Core::issueFromFiber(const MemOp &op)
{
    _pending = op;
    _op_in_flight = true;
    ++_ops;
    // Execute the op on the fiber: nothing else runs between issue and
    // execution, so this is the schedule of executing it after a yield.
    // Suspend only if the op must wait or its resume event is not
    // provably the next event. Gated cores park first: the runner
    // decides when the op executes.
    if (_gate || !executePending(true))
        Fiber::yield();
    return _result;
}

void
Core::resumeFiber()
{
    if (_halted || _finished)
        return;

    _fiber->resume();

    if (_fiber->finished()) {
        _finished = true;
        _finish_tick = _eq.now();
        return;
    }

    if (_gate) {
        BBB_ASSERT(_op_in_flight, "fiber yielded without an op");
        _gate->onParked(_id, _pending);
    }
}

void
Core::releasePending()
{
    BBB_ASSERT(_gate, "releasePending without a gate");
    BBB_ASSERT(_op_in_flight, "releasePending with nothing parked");
    executePending(false);
}

void
Core::onSbChange()
{
    if (_halted || !_waiting_on_sb)
        return;
    _waiting_on_sb = false;
    _stall_ticks += _eq.now() - _wait_start;
    executePending(false);
}

bool
Core::executePending(bool in_fiber)
{
    if (_halted)
        return false;
    BBB_ASSERT(_op_in_flight, "nothing pending");

    // The resume event fires in place only on the core's own fiber;
    // every other caller (store-buffer wake-ups, gate releases) queues it.
    auto complete = [this, in_fiber](Tick lat, std::uint64_t result) {
        _result = result;
        _op_in_flight = false;
        Tick when = _eq.now() + lat;
        if (in_fiber && _eq.tryFireInline(when, EventPriority::CoreOp))
            return true;
        _eq.schedule(when, [this]() { resumeFiber(); },
                     EventPriority::CoreOp);
        return false;
    };
    auto waitOnSb = [this]() {
        _waiting_on_sb = true;
        _wait_start = _eq.now();
    };

    const Tick cycle = _cfg.cyclePeriod();

    switch (_pending.kind) {
      case OpKind::Load: {
        ++_loads;
        std::uint64_t fwd;
        if (_sb.forward(_pending.addr, _pending.size, fwd))
            return complete(cycle, fwd);
        if (_sb.hasBlock(blockAlign(_pending.addr))) {
            // Partial overlap with a buffered store: wait for it to
            // retire rather than merging bytes.
            waitOnSb();
            return false;
        }
        std::uint64_t value = 0;
        AccessResult res =
            _hier.load(_id, _pending.addr, _pending.size, &value);
        return complete(res.latency, value);
      }

      case OpKind::Store: {
        if (_sb.full()) {
            ++_sb_full_stalls;
            waitOnSb();
            return false;
        }
        ++_stores;
        bool persisting = _hier.addrMap().isPersistent(_pending.addr);
        _sb.push(_pending.addr, _pending.size, _pending.data, persisting);
        return complete(cycle, 0);
      }

      case OpKind::Flush: {
        if (_sb.hasBlock(blockAlign(_pending.addr))) {
            waitOnSb();
            return false;
        }
        ++_flushes;
        // clwb-style flushes are asynchronous: the instruction retires
        // after issue; the writeback proceeds in the background and only
        // a fence waits for it (x86 clwb / Arm DC CVAP semantics).
        // The seeded "flush-drop" mutation retires the flush without
        // writing anything back: fence-confirmed data never reaches the
        // persistence domain — the Px86 violation the litmus
        // mutation-kill self-check must catch.
        Tick lat = litmusMutation("flush-drop")
                       ? cycle
                       : _hier.flushBlock(_id, _pending.addr);
        ++_flushes_outstanding;
        _eq.scheduleIn(lat,
                       [this]() {
                           BBB_ASSERT(_flushes_outstanding > 0,
                                      "flush completion underflow");
                           --_flushes_outstanding;
                           onSbChange(); // re-evaluate a waiting fence
                       },
                       EventPriority::MemResponse);
        return complete(cycle, 0);
      }

      case OpKind::Fence: {
        if (!_sb.empty() || _flushes_outstanding > 0) {
            waitOnSb();
            return false;
        }
        ++_fences;
        return complete(cycle, 0);
      }

      case OpKind::Advance:
        return complete(_pending.cycles * cycle, 0);

      case OpKind::None:
        panic("core %u executing OpKind::None", _id);
    }
    return false;
}

} // namespace bbb
