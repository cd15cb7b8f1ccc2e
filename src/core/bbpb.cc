#include "core/bbpb.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/op_gate.hh"

namespace bbb
{

void
BbpbStats::registerWith(StatGroup &g)
{
    g.addCounter("allocations", &allocations, "bbPB entries allocated");
    g.addCounter("coalesces", &coalesces, "stores coalesced into entries");
    g.addCounter("drains", &drains, "entries drained by the drain policy");
    g.addCounter("forced_drains", &forced_drains,
                 "entries drained by eviction pressure");
    g.addCounter("migrations", &migrations,
                 "entries dropped because the block migrated cores");
    g.addCounter("wpq_retries", &wpq_retries,
                 "drain attempts deferred by a full WPQ");
    g.addCounter("crash_drained", &crash_drained,
                 "entries drained at crash time");
    g.addCounter("proactive_drains", &proactive_drains,
                 "entries drained proactively on low battery");
    g.addHistogram("occupancy", &occupancy, "occupancy seen at allocation");
    g.addHistogram("residency_ns", &residency_ns,
                   "entry lifetime from allocation to drain");
}

namespace
{
unsigned
thresholdEntries(const BbpbConfig &cfg)
{
    auto t = static_cast<unsigned>(
        std::ceil(cfg.drain_threshold * cfg.entries));
    return std::clamp(t, 1u, cfg.entries);
}
} // namespace

// ---------------------------------------------------------------------
// MemSideBbpb
// ---------------------------------------------------------------------

MemSideBbpb::MemSideBbpb(const SystemConfig &cfg, EventQueue &eq,
                         MemCtrl &nvmm, StatRegistry &stats)
    : _cfg(cfg), _eq(eq), _nvmm(nvmm),
      _bufs(cfg.num_cores, CoreBuffer(cfg.bbpb.entries)),
      _index(static_cast<std::size_t>(cfg.num_cores) * cfg.bbpb.entries),
      _threshold(thresholdEntries(cfg.bbpb)), _drain_rng(cfg.seed ^ 0xd7a1)
{
    _stats.registerWith(stats.group("bbpb"));
}

MemSideBbpb::CoreBuffer &
MemSideBbpb::buffer(CoreId c)
{
    BBB_ASSERT(c < _bufs.size(), "bbPB access with bad core id %u", c);
    return _bufs[c];
}

const MemSideBbpb::CoreBuffer &
MemSideBbpb::buffer(CoreId c) const
{
    BBB_ASSERT(c < _bufs.size(), "bbPB access with bad core id %u", c);
    return _bufs[c];
}

std::uint32_t
MemSideBbpb::allocSlot(CoreId c, CoreBuffer &buf, Addr block)
{
    std::uint32_t s = buf.slots.pushBack();
    buf.slots[s].block = block;
    _index.insert(block, {c, s});
    return s;
}

void
MemSideBbpb::removeSlot(CoreId, CoreBuffer &buf, std::uint32_t s)
{
    Slot &sl = buf.slots[s];
    _index.erase(sl.block);
    sl.block = kBadAddr;
    buf.slots.remove(s);
}

bool
MemSideBbpb::canAcceptPersist(CoreId c, Addr block)
{
    const OwnershipRef *ref = _index.find(blockAlign(block));
    if (ref && ref->core == c)
        return true; // coalesce
    if (_low_power)
        return false; // refuse-dirty: no new blocks while charge is low
    return !buffer(c).slots.full();
}

void
MemSideBbpb::persistStore(CoreId c, Addr addr, unsigned size,
                          const BlockData &line_data)
{
    (void)size;
    Addr block = blockAlign(addr);
    CoreBuffer &buf = buffer(c);
    _stats.occupancy.sample(buf.slots.size());

    OwnershipRef *ref = _index.find(block);
    if (ref) {
        // The entry is already in the persistence domain; coalescing is
        // unrestricted for the memory-side organisation. A hit on another
        // core's entry is a caller bug: the hierarchy migrates ownership
        // (onInvalidateForWrite) before the store completes (Invariant 4).
        BBB_ASSERT(ref->core == c,
                   "persistStore to block %#llx still held by core %u",
                   (unsigned long long)block, ref->core);
        Slot &sl = buf.slots[ref->payload];
        sl.data = line_data;
        sl.write_seq = _next_seq++;
        ++_stats.coalesces;
        return;
    }

    BBB_ASSERT(!buf.slots.full(),
               "persistStore on full bbPB (missing canAcceptPersist?)");
    std::uint64_t seq = _next_seq++;
    Slot &sl = buf.slots[allocSlot(c, buf, block)];
    sl.data = line_data;
    sl.seq = seq;
    sl.write_seq = seq;
    sl.alloc_tick = _eq.now();
    ++_stats.allocations;
    maybeStartDrain(c);
}

void
MemSideBbpb::onInvalidateForWrite(CoreId holder, Addr block)
{
    block = blockAlign(block);
    const OwnershipRef *ref = _index.find(block);
    if (!ref || ref->core != holder)
        return;
    // Fig. 6(a)/(b): ownership migrates with the block; the writer's bbPB
    // takes over the obligation to drain, so no NVMM write happens here.
    removeSlot(holder, buffer(holder), ref->payload);
    ++_stats.migrations;
}

void
MemSideBbpb::onForcedDrain(Addr block, const BlockData &data)
{
    block = blockAlign(block);
    const OwnershipRef *ref = _index.find(block);
    if (!ref)
        return; // no holder anywhere (Invariant 4: at most one)
    // Drain synchronously: the eviction cannot complete until the
    // value is safely in the WPQ. `data` is the freshest copy from
    // the cache, which matches the coalesced entry. A full WPQ must
    // not drop the block (it is leaving the persistence domain), so
    // escalate to a bypass write; the eviction path charges the
    // stall.
    if (!_nvmm.enqueueWrite(block, data))
        _nvmm.forceWrite(block, data);
    CoreBuffer &buf = buffer(ref->core);
    _stats.residency_ns.sample(static_cast<std::uint64_t>(
        ticksToNs(_eq.now() - buf.slots[ref->payload].alloc_tick)));
    removeSlot(ref->core, buf, ref->payload);
    ++_stats.forced_drains;
}

bool
MemSideBbpb::skipLlcWriteback(Addr) const
{
    // Any dirty persistent value either sits in a bbPB (forced drain just
    // handled it) or was already drained; the LLC writeback is redundant.
    return true;
}

bool
MemSideBbpb::holds(CoreId c, Addr block) const
{
    BBB_ASSERT(c < _bufs.size(), "bbPB holds() with bad core id %u", c);
    const OwnershipRef *ref = _index.find(blockAlign(block));
    return ref && ref->core == c;
}

CoreId
MemSideBbpb::holder(Addr block) const
{
    const OwnershipRef *ref = _index.find(blockAlign(block));
    return ref ? ref->core : kNoCore;
}

void
MemSideBbpb::forEachHeld(
    const std::function<void(CoreId, Addr)> &fn) const
{
    for (CoreId c = 0; c < static_cast<CoreId>(_bufs.size()); ++c) {
        // Walk the FCFS list: deterministic oldest-first order.
        const Slab &slots = _bufs[c].slots;
        for (std::uint32_t s = slots.head(); s != kNil; s = slots.next(s))
            fn(c, slots[s].block);
    }
}

std::size_t
MemSideBbpb::occupancy() const
{
    // One index record per held block, system-wide (Invariant 4).
    return _index.size();
}

std::size_t
MemSideBbpb::coreOccupancy(CoreId c) const
{
    return buffer(c).slots.size();
}

void
MemSideBbpb::maybeStartDrain(CoreId c)
{
    CoreBuffer &buf = _bufs[c];
    if (buf.drain_active || buf.slots.size() < _threshold)
        return;
    buf.drain_active = true;
    _eq.scheduleIn(_cfg.cycles(_cfg.bbpb.drain_latency_cycles),
                   [this, c]() { drainStep(c); },
                   EventPriority::DrainComplete);
}

void
MemSideBbpb::drainStep(CoreId c)
{
    CoreBuffer &buf = _bufs[c];
    BBB_ASSERT(buf.drain_active, "drain step without active drain");

    // Entries may have been removed (migration/forced drain) since the
    // step was scheduled; stop when below threshold.
    if (buf.slots.size() < _threshold) {
        buf.drain_active = false;
        return;
    }

    std::uint32_t s = drainVictim(buf);
    const Slot &sl = buf.slots[s];

    if (!_nvmm.enqueueWrite(sl.block, sl.data)) {
        ++_stats.wpq_retries;
        _eq.scheduleIn(_cfg.cycles(_cfg.bbpb.retry_cycles),
                       [this, c]() { drainStep(c); },
                       EventPriority::DrainComplete);
        return;
    }

    _stats.residency_ns.sample(static_cast<std::uint64_t>(
        ticksToNs(_eq.now() - sl.alloc_tick)));
    removeSlot(c, buf, s);
    ++_stats.drains;

    if (buf.slots.size() >= _threshold) {
        // Drains pipeline toward the controller: sustained rate is the
        // injection interval, not the end-to-end transfer latency.
        _eq.scheduleIn(_cfg.cycles(_cfg.bbpb.drain_issue_cycles),
                       [this, c]() { drainStep(c); },
                       EventPriority::DrainComplete);
    } else {
        buf.drain_active = false;
    }
}

std::uint32_t
MemSideBbpb::drainVictim(const CoreBuffer &buf)
{
    BBB_ASSERT(buf.slots.size() > 0, "drain victim from empty bbPB");
    switch (_cfg.bbpb.drain_policy) {
      case DrainPolicy::Fcfs:
        return buf.slots.head();
      case DrainPolicy::Lrw: {
        std::uint32_t best = kNil;
        std::uint64_t oldest_write = ~0ull;
        for (std::uint32_t s = buf.slots.head(); s != kNil;
             s = buf.slots.next(s)) {
            if (buf.slots[s].write_seq < oldest_write) {
                oldest_write = buf.slots[s].write_seq;
                best = s;
            }
        }
        return best;
      }
      case DrainPolicy::Random: {
        // Victim index in deterministic FCFS order (the map-based
        // implementation sampled hash order, which was equally random
        // but an accident of the container).
        std::uint64_t idx = _drain_rng.below(buf.slots.size());
        std::uint32_t s = buf.slots.head();
        while (idx--)
            s = buf.slots.next(s);
        return s;
      }
    }
    panic("unknown drain policy");
}

std::uint64_t
MemSideBbpb::forceDrainOldest(std::uint64_t max_blocks)
{
    // Low-battery backup: push the globally oldest entries (by
    // allocation seq across cores) through the *powered* write path —
    // the WPQ coalesces same-block writes, so a proactively drained
    // value can never be overtaken by an older pending write. Stop when
    // the WPQ fills rather than escalating: this is a best-effort
    // background action, not a correctness-critical eviction.
    std::uint64_t drained = 0;
    while (drained < max_blocks) {
        CoreId best_c = kNoCore;
        std::uint64_t best_seq = ~0ull;
        for (CoreId c = 0; c < static_cast<CoreId>(_bufs.size()); ++c) {
            const Slab &slots = _bufs[c].slots;
            if (slots.head() == kNil)
                continue;
            const Slot &sl = slots[slots.head()];
            if (sl.seq < best_seq) {
                best_seq = sl.seq;
                best_c = c;
            }
        }
        if (best_c == kNoCore)
            break; // all buffers empty
        CoreBuffer &buf = _bufs[best_c];
        std::uint32_t s = buf.slots.head();
        const Slot &sl = buf.slots[s];
        if (!_nvmm.enqueueWrite(sl.block, sl.data))
            break; // WPQ full
        _stats.residency_ns.sample(static_cast<std::uint64_t>(
            ticksToNs(_eq.now() - sl.alloc_tick)));
        removeSlot(best_c, buf, s);
        ++_stats.proactive_drains;
        ++drained;
    }
    return drained;
}

void
MemSideBbpb::crashDrain(const PersistSink &sink)
{
    for (CoreBuffer &buf : _bufs) {
        // FCFS order within a core (order is irrelevant across blocks
        // since each block has exactly one entry system-wide). The
        // seeded "crash-reverse-drain" mutation streams newest-first,
        // so an exhausted battery sacrifices the *oldest* persists — the
        // prefix violation the litmus harness must catch.
        std::vector<std::uint32_t> order;
        for (std::uint32_t s = buf.slots.head(); s != kNil;
             s = buf.slots.next(s))
            order.push_back(s);
        if (litmusMutation("crash-reverse-drain"))
            std::reverse(order.begin(), order.end());
        for (std::uint32_t s : order) {
            sink(buf.slots[s].block, buf.slots[s].data);
            ++_stats.crash_drained;
        }
        buf.slots.clear();
        buf.drain_active = false;
    }
    _index.clear();
}

// ---------------------------------------------------------------------
// ProcSideBbpb
// ---------------------------------------------------------------------

ProcSideBbpb::ProcSideBbpb(const SystemConfig &cfg, EventQueue &eq,
                           MemCtrl &nvmm, StatRegistry &stats)
    : _cfg(cfg), _eq(eq), _nvmm(nvmm), _bufs(cfg.num_cores),
      _index(static_cast<std::size_t>(cfg.num_cores) * cfg.bbpb.entries),
      _threshold(thresholdEntries(cfg.bbpb))
{
    for (CoreBuffer &buf : _bufs)
        buf.ring.resize(_cfg.bbpb.entries);
    _stats.registerWith(stats.group("bbpb_proc"));
}

ProcSideBbpb::Record &
ProcSideBbpb::recordAt(CoreBuffer &buf, std::uint32_t i)
{
    std::uint32_t pos = buf.head + i;
    if (pos >= buf.ring.size())
        pos -= static_cast<std::uint32_t>(buf.ring.size());
    return buf.ring[pos];
}

const ProcSideBbpb::Record &
ProcSideBbpb::recordAt(const CoreBuffer &buf, std::uint32_t i) const
{
    std::uint32_t pos = buf.head + i;
    if (pos >= buf.ring.size())
        pos -= static_cast<std::uint32_t>(buf.ring.size());
    return buf.ring[pos];
}

void
ProcSideBbpb::indexAddRecord(CoreId c, Addr block)
{
    OwnershipRef *ref = _index.find(block);
    if (ref) {
        BBB_ASSERT(ref->core == c,
                   "ordered record for block %#llx held by core %u",
                   (unsigned long long)block, ref->core);
        ++ref->payload; // another record for the same block
    } else {
        _index.insert(block, {c, 1});
    }
}

void
ProcSideBbpb::indexDropRecord(Addr block)
{
    OwnershipRef *ref = _index.find(block);
    BBB_ASSERT(ref, "dropping unindexed record for block %#llx",
               (unsigned long long)block);
    if (--ref->payload == 0)
        _index.erase(block);
}

void
ProcSideBbpb::popFront(CoreBuffer &buf)
{
    BBB_ASSERT(buf.count > 0, "pop from empty record ring");
    indexDropRecord(buf.ring[buf.head].block);
    buf.ring[buf.head].block = kBadAddr;
    ++buf.head;
    if (buf.head >= buf.ring.size())
        buf.head = 0;
    --buf.count;
}

bool
ProcSideBbpb::canAcceptPersist(CoreId c, Addr block)
{
    BBB_ASSERT(c < _bufs.size(), "bbPB access with bad core id %u", c);
    CoreBuffer &buf = _bufs[c];
    block = blockAlign(block);
    // The only coalescing opportunity (when enabled): a pair of
    // consecutive stores to one block.
    if (_cfg.bbpb.proc_pairwise_coalescing && buf.count > 0 &&
        recordAt(buf, buf.count - 1).block == block &&
        !recordAt(buf, buf.count - 1).coalesced_once) {
        return true;
    }
    if (_low_power)
        return false; // refuse-dirty: no new records while charge is low
    return buf.count < _cfg.bbpb.entries;
}

void
ProcSideBbpb::persistStore(CoreId c, Addr addr, unsigned size,
                           const BlockData &line_data)
{
    (void)size;
    Addr block = blockAlign(addr);
    BBB_ASSERT(c < _bufs.size(), "bbPB access with bad core id %u", c);
    CoreBuffer &buf = _bufs[c];
    _stats.occupancy.sample(buf.count);

    if (_cfg.bbpb.proc_pairwise_coalescing && buf.count > 0) {
        Record &back = recordAt(buf, buf.count - 1);
        if (back.block == block && !back.coalesced_once) {
            back.data = line_data;
            back.coalesced_once = true;
            ++_stats.coalesces;
            return;
        }
    }

    BBB_ASSERT(buf.count < _cfg.bbpb.entries,
               "persistStore on full processor-side bbPB");
    Record &rec = recordAt(buf, buf.count);
    rec.block = block;
    rec.data = line_data;
    rec.coalesced_once = false;
    ++buf.count;
    indexAddRecord(c, block);
    ++_stats.allocations;
    maybeStartDrain(c);
}

void
ProcSideBbpb::drainPrefixFor(CoreId c, Addr block)
{
    BBB_ASSERT(c < _bufs.size(), "bbPB access with bad core id %u", c);
    CoreBuffer &buf = _bufs[c];
    // Find the last record for the block; everything at or before it must
    // drain first to preserve persist order.
    std::uint32_t last = buf.count;
    for (std::uint32_t i = buf.count; i-- > 0;) {
        if (recordAt(buf, i).block == block) {
            last = i;
            break;
        }
    }
    if (last == buf.count)
        return; // block not buffered

    for (std::uint32_t i = 0; i <= last; ++i) {
        const Record &r = buf.ring[buf.head];
        // Ordering forbids deferring (younger records would overtake),
        // so a full WPQ escalates to a bypass write rather than dropping
        // or reordering the record.
        if (!_nvmm.enqueueWrite(r.block, r.data))
            _nvmm.forceWrite(r.block, r.data);
        ++_stats.forced_drains;
        popFront(buf);
    }
}

void
ProcSideBbpb::onInvalidateForWrite(CoreId holder, Addr block)
{
    // Ordered records cannot be dropped (older records would overtake);
    // drain through the block instead.
    drainPrefixFor(holder, blockAlign(block));
}

void
ProcSideBbpb::onForcedDrain(Addr block, const BlockData &data)
{
    (void)data;
    block = blockAlign(block);
    const OwnershipRef *ref = _index.find(block);
    if (ref)
        drainPrefixFor(ref->core, block);
}

bool
ProcSideBbpb::skipLlcWriteback(Addr) const
{
    // Every persisting store's value reaches NVMM through its record, so
    // the LLC writeback is still redundant.
    return true;
}

bool
ProcSideBbpb::holds(CoreId c, Addr block) const
{
    BBB_ASSERT(c < _bufs.size(), "bbPB holds() with bad core id %u", c);
    const OwnershipRef *ref = _index.find(blockAlign(block));
    return ref && ref->core == c;
}

CoreId
ProcSideBbpb::holder(Addr block) const
{
    const OwnershipRef *ref = _index.find(blockAlign(block));
    return ref ? ref->core : kNoCore;
}

void
ProcSideBbpb::forEachHeld(
    const std::function<void(CoreId, Addr)> &fn) const
{
    for (CoreId c = 0; c < static_cast<CoreId>(_bufs.size()); ++c) {
        const CoreBuffer &buf = _bufs[c];
        // Records keep program order; report each block once (a block
        // may span several store records). The quadratic first-occurrence
        // scan is bounded by the fixed ring size and only runs on the
        // cold invariant-check path.
        for (std::uint32_t i = 0; i < buf.count; ++i) {
            Addr block = recordAt(buf, i).block;
            bool first = true;
            for (std::uint32_t j = 0; j < i && first; ++j)
                first = recordAt(buf, j).block != block;
            if (first)
                fn(c, block);
        }
    }
}

std::size_t
ProcSideBbpb::occupancy() const
{
    std::size_t n = 0;
    for (const CoreBuffer &buf : _bufs)
        n += buf.count;
    return n;
}

std::size_t
ProcSideBbpb::coreOccupancy(CoreId c) const
{
    BBB_ASSERT(c < _bufs.size(), "bbPB access with bad core id %u", c);
    return _bufs[c].count;
}

void
ProcSideBbpb::maybeStartDrain(CoreId c)
{
    CoreBuffer &buf = _bufs[c];
    if (buf.drain_active || buf.count < _threshold)
        return;
    buf.drain_active = true;
    _eq.scheduleIn(_cfg.cycles(_cfg.bbpb.drain_latency_cycles),
                   [this, c]() { drainStep(c); },
                   EventPriority::DrainComplete);
}

void
ProcSideBbpb::drainStep(CoreId c)
{
    CoreBuffer &buf = _bufs[c];
    if (buf.count < _threshold) {
        buf.drain_active = false;
        return;
    }

    const Record &r = buf.ring[buf.head];
    if (!_nvmm.enqueueWrite(r.block, r.data)) {
        ++_stats.wpq_retries;
        _eq.scheduleIn(_cfg.cycles(_cfg.bbpb.retry_cycles),
                       [this, c]() { drainStep(c); },
                       EventPriority::DrainComplete);
        return;
    }
    popFront(buf);
    ++_stats.drains;

    if (buf.count >= _threshold) {
        _eq.scheduleIn(_cfg.cycles(_cfg.bbpb.drain_issue_cycles),
                       [this, c]() { drainStep(c); },
                       EventPriority::DrainComplete);
    } else {
        buf.drain_active = false;
    }
}

std::uint64_t
ProcSideBbpb::forceDrainOldest(std::uint64_t max_blocks)
{
    // Ordered records only ever leave from the front, so the proactive
    // drain round-robins the per-core fronts: per-core persist order is
    // preserved exactly, and cores shed their oldest records fairly.
    std::uint64_t drained = 0;
    bool progress = true;
    while (drained < max_blocks && progress) {
        progress = false;
        for (CoreId c = 0;
             c < static_cast<CoreId>(_bufs.size()) && drained < max_blocks;
             ++c) {
            CoreBuffer &buf = _bufs[c];
            if (buf.count == 0)
                continue;
            const Record &r = buf.ring[buf.head];
            if (!_nvmm.enqueueWrite(r.block, r.data))
                return drained; // WPQ full
            popFront(buf);
            ++_stats.proactive_drains;
            ++drained;
            progress = true;
        }
    }
    return drained;
}

void
ProcSideBbpb::crashDrain(const PersistSink &sink)
{
    for (CoreBuffer &buf : _bufs) {
        // Ordered store records stream oldest-first; see the mem-side
        // comment for the seeded "crash-reverse-drain" mutation.
        const bool reversed = litmusMutation("crash-reverse-drain");
        for (std::uint32_t i = 0; i < buf.count; ++i) {
            std::uint32_t at = reversed ? buf.count - 1 - i : i;
            const Record &r = recordAt(buf, at);
            sink(r.block, r.data);
            ++_stats.crash_drained;
        }
        buf.head = 0;
        buf.count = 0;
        buf.drain_active = false;
    }
    _index.clear();
}

} // namespace bbb
