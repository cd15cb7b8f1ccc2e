#include "cpu/store_buffer.hh"

#include "sim/op_gate.hh"

namespace bbb
{

/** Cycles between successive drains from the buffer's head to L1D. */
constexpr unsigned kDrainIntervalCycles = 1;

StoreBuffer::StoreBuffer(CoreId core, const SystemConfig &cfg,
                         EventQueue &eq, CacheHierarchy &hier,
                         StatRegistry &stats)
    : _core(core), _cfg(cfg), _eq(eq), _hier(hier),
      _entries(cfg.store_buffer.entries), _newest(cfg.store_buffer.entries),
      _drain_youngest(litmusMutation("drain-youngest"))
{
    StatGroup &g = stats.group("sb" + std::to_string(core));
    g.addCounter("pushes", &_pushes);
    g.addCounter("forwards", &_forwards);
    g.addCounter("retired", &_retired);
    g.addCounter("persist_rejections", &_rejections);
    g.addCounter("retry_polls", &_retry_polls);
    g.addCounter("ooo_retires", &_ooo_retires);
}

void
StoreBuffer::push(Addr addr, unsigned size, std::uint64_t data,
                  bool persisting)
{
    BBB_ASSERT(!full(), "push into full store buffer");
    BBB_ASSERT(size > 0 && size <= 8 && withinBlock(addr, size),
               "unsupported store shape");
    const Addr block = blockAlign(addr);
    std::uint32_t slot = _entries.pushBack();
    std::uint32_t older = kNil;
    if (std::uint32_t *newest = _newest.find(block)) {
        older = *newest;
        _entries[older].younger = slot;
        *newest = slot;
    } else {
        _newest.insert(block, slot);
    }
    _entries[slot] = Slot{SbEntry{addr, size, data, persisting, false},
                          older, kNil};
    ++_pushes;
    maybeScheduleDrain(_cfg.cycles(kDrainIntervalCycles));
}

SbProbe
StoreBuffer::probe(Addr addr, unsigned size, std::uint64_t &out) const
{
    const std::uint32_t *newest = _newest.find(blockAlign(addr));
    if (!newest)
        return SbProbe::Miss;
    for (std::uint32_t s = *newest; s != kNil; s = _entries[s].older) {
        const SbEntry &e = _entries[s].e;
        if (addr >= e.addr + e.size || e.addr >= addr + size)
            continue;
        // The youngest store touching the load decides: an older one
        // that covers it may hold bytes this one overwrote.
        if (addr < e.addr || addr + size > e.addr + e.size)
            return SbProbe::Blocked;
        std::uint64_t shifted = e.data >> ((addr - e.addr) * 8);
        std::uint64_t mask = size == 8 ? ~0ull
                                       : ((1ull << (size * 8)) - 1);
        out = shifted & mask;
        _forwards += 1;
        return SbProbe::Hit;
    }
    return SbProbe::Blocked;
}

void
StoreBuffer::remove(std::uint32_t slot)
{
    const Slot &n = _entries[slot];
    if (n.older != kNil)
        _entries[n.older].younger = n.younger;
    if (n.younger != kNil)
        _entries[n.younger].older = n.older;
    else if (n.older != kNil)
        *_newest.find(blockAlign(n.e.addr)) = n.older;
    else
        _newest.erase(blockAlign(n.e.addr));
    _entries.remove(slot);
}

AccessResult
StoreBuffer::storeToL1(std::uint32_t slot)
{
    SbEntry &e = _entries[slot].e;
    return _hier.store(_core, e.addr, e.size, &e.data);
}

void
StoreBuffer::maybeScheduleDrain(Tick delay)
{
    if (_manual_drain || _drain_active || empty())
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
    if (empty()) {
        _drain_active = false;
        return;
    }

    // Pick the entry to retire: the head, unless out-of-order drain is
    // enabled and the head is blocked by a bbPB rejection — then the
    // oldest drainable entry may bypass it (relaxed-consistency model).
    const std::uint32_t head = _entries.head();
    std::uint32_t victim = head;
    AccessResult res = storeToL1(head);
    if (res.status == StoreStatus::RetryPersist && _ooo_drain) {
        for (std::uint32_t s = _entries.next(head); s != kNil;
             s = _entries.next(s)) {
            // A younger store to the same block must not bypass.
            if (_entries[s].older != kNil)
                continue;
            AccessResult r2 = storeToL1(s);
            if (r2.status == StoreStatus::Done) {
                victim = s;
                res = r2;
                ++_ooo_retires;
                break;
            }
        }
    }

    if (res.status == StoreStatus::RetryPersist) {
        SbEntry &blocked = _entries[head].e;
        if (!blocked.rejection_counted) {
            blocked.rejection_counted = true;
            ++_rejections;
        }
        ++_retry_polls;
        _eq.scheduleIn(_cfg.cycles(kPersistRetryCycles),
                       [this]() { drainStep(); }, EventPriority::CacheOp);
        return;
    }

    remove(victim);
    ++_retired;

    // The L1D write port is busy for the store's latency; the next drain
    // cannot start earlier, whether or not the buffer goes empty first.
    Tick busy = std::max<Tick>(
        res.latency, _cfg.cycles(kDrainIntervalCycles));
    _port_free = _eq.now() + busy;
    if (empty()) {
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
    if (empty())
        return false;

    // TSO drain order is oldest-first. The seeded "drain-youngest"
    // mutation retires the youngest entry instead — the ordering bug the
    // litmus mutation-kill self-check must catch.
    std::uint32_t slot = _drain_youngest ? _entries.tail() : _entries.head();
    AccessResult res = storeToL1(slot);
    BBB_ASSERT(res.status == StoreStatus::Done,
               "manual drain rejected by the persistency backend");
    remove(slot);
    ++_retired;
    if (_on_change)
        _on_change();
    return true;
}

std::vector<SbEntry>
StoreBuffer::drainForCrash()
{
    std::vector<SbEntry> out;
    forEach([&](const SbEntry &e) {
        if (e.persisting)
            out.push_back(e);
    });
    _entries.clear();
    _newest.clear();
    _drain_active = false;
    return out;
}

} // namespace bbb
