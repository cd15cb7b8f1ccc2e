#include "cpu/store_buffer.hh"

#include "sim/op_gate.hh"

namespace bbb
{

StoreBuffer::StoreBuffer(CoreId core, const SystemConfig &cfg,
                         EventQueue &eq, CacheHierarchy &hier,
                         StatRegistry &stats)
    : _core(core), _cfg(cfg), _eq(eq), _hier(hier),
      _drain_youngest(litmusMutation("drain-youngest"))
{
    StatGroup &g = stats.group("sb" + std::to_string(core));
    g.addCounter("pushes", &_pushes, "stores committed into the buffer");
    g.addCounter("forwards", &_forwards, "loads satisfied by forwarding");
    g.addCounter("retired", &_retired, "stores written to the L1D");
    g.addCounter("persist_rejections", &_rejections,
                 "stores stalled by a full bbPB (counted once each)");
    g.addCounter("retry_polls", &_retry_polls,
                 "individual bbPB retry attempts");
    g.addCounter("ooo_retires", &_ooo_retires,
                 "stores retired past a blocked older store");
}

void
StoreBuffer::push(Addr addr, unsigned size, std::uint64_t data,
                  bool persisting)
{
    BBB_ASSERT(!full(), "push into full store buffer");
    BBB_ASSERT(size > 0 && size <= 8 && withinBlock(addr, size),
               "unsupported store shape");
    _entries.push_back(SbEntry{addr, size, data, persisting, false});
    ++_pushes;
    maybeScheduleDrain(_cfg.cycles(_cfg.store_buffer.drain_interval_cycles));
}

bool
StoreBuffer::forward(Addr addr, unsigned size, std::uint64_t &out) const
{
    for (auto it = _entries.rbegin(); it != _entries.rend(); ++it) {
        const SbEntry &e = *it;
        if (addr >= e.addr && addr + size <= e.addr + e.size) {
            std::uint64_t shifted = e.data >> ((addr - e.addr) * 8);
            std::uint64_t mask = size == 8 ? ~0ull
                                           : ((1ull << (size * 8)) - 1);
            out = shifted & mask;
            _forwards += 1;
            return true;
        }
    }
    return false;
}

bool
StoreBuffer::hasBlock(Addr block) const
{
    block = blockAlign(block);
    for (const SbEntry &e : _entries) {
        if (blockAlign(e.addr) == block)
            return true;
    }
    return false;
}

void
StoreBuffer::maybeScheduleDrain(Tick delay)
{
    if (_manual_drain || _drain_active || _entries.empty())
        return;
    _drain_active = true;
    Tick now = _eq.now();
    Tick when = std::max(now + delay, _port_free);
    _eq.schedule(when, [this]() { drainStep(); }, EventPriority::CacheOp);
}

void
StoreBuffer::drainStep()
{
    BBB_ASSERT(_drain_active, "drain step while inactive");
    if (_entries.empty()) {
        _drain_active = false;
        return;
    }

    // Pick the entry to retire: the head, unless out-of-order drain is
    // enabled and the head is blocked by a bbPB rejection — then the
    // oldest drainable entry may bypass it (relaxed-consistency model).
    std::size_t idx = 0;
    AccessResult res = _hier.store(_core, _entries[0].addr,
                                   _entries[0].size, &_entries[0].data);
    if (res.status == StoreStatus::RetryPersist && _ooo_drain) {
        for (std::size_t i = 1; i < _entries.size(); ++i) {
            // A younger store to the same block must not bypass.
            bool same_block_older = false;
            for (std::size_t j = 0; j < i; ++j) {
                if (blockAlign(_entries[j].addr) ==
                    blockAlign(_entries[i].addr)) {
                    same_block_older = true;
                    break;
                }
            }
            if (same_block_older)
                continue;
            AccessResult r2 = _hier.store(_core, _entries[i].addr,
                                          _entries[i].size,
                                          &_entries[i].data);
            if (r2.status == StoreStatus::Done) {
                idx = i;
                res = r2;
                ++_ooo_retires;
                break;
            }
        }
    }

    if (res.status == StoreStatus::RetryPersist) {
        if (!_entries[0].rejection_counted) {
            _entries[0].rejection_counted = true;
            ++_rejections;
        }
        ++_retry_polls;
        _eq.scheduleIn(_cfg.cycles(_cfg.bbpb.retry_cycles),
                       [this]() { drainStep(); }, EventPriority::CacheOp);
        return;
    }

    _entries.erase(_entries.begin() + static_cast<std::ptrdiff_t>(idx));
    ++_retired;

    // The L1D write port is busy for the store's latency; the next drain
    // cannot start earlier, whether or not the buffer goes empty first.
    Tick busy = std::max<Tick>(
        res.latency, _cfg.cycles(_cfg.store_buffer.drain_interval_cycles));
    _port_free = _eq.now() + busy;
    if (_entries.empty()) {
        _drain_active = false;
    } else {
        _eq.schedule(_port_free, [this]() { drainStep(); },
                     EventPriority::CacheOp);
    }

    if (_on_change)
        _on_change();
}

bool
StoreBuffer::retireOne()
{
    BBB_ASSERT(_manual_drain, "retireOne outside manual drain mode");
    if (_entries.empty())
        return false;

    // TSO drain order is oldest-first. The seeded "drain-youngest"
    // mutation retires the youngest entry instead — the ordering bug the
    // litmus mutation-kill self-check must catch.
    std::size_t idx = 0;
    if (_drain_youngest)
        idx = _entries.size() - 1;

    AccessResult res = _hier.store(_core, _entries[idx].addr,
                                   _entries[idx].size,
                                   &_entries[idx].data);
    BBB_ASSERT(res.status == StoreStatus::Done,
               "manual drain rejected by the persistency backend");
    _entries.erase(_entries.begin() + static_cast<std::ptrdiff_t>(idx));
    ++_retired;
    if (_on_change)
        _on_change();
    return true;
}

std::deque<SbEntry>
StoreBuffer::drainForCrash()
{
    std::deque<SbEntry> out;
    for (const SbEntry &e : _entries) {
        if (e.persisting)
            out.push_back(e);
    }
    _entries.clear();
    _drain_active = false;
    return out;
}

} // namespace bbb
