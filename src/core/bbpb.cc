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
    g.addCounter("allocations", &allocations);
    g.addCounter("coalesces", &coalesces);
    g.addCounter("drains", &drains);
    g.addCounter("forced_drains", &forced_drains);
    g.addCounter("migrations", &migrations);
    g.addCounter("wpq_retries", &wpq_retries);
    g.addCounter("crash_drained", &crash_drained);
    g.addCounter("proactive_drains", &proactive_drains);
    g.addHistogram("occupancy", &occupancy);
    g.addHistogram("residency_ns", &residency_ns);
}

namespace
{

/** Core cycles between successive drain initiations (see drainStep). */
constexpr unsigned kDrainIssueCycles = 4;

unsigned
thresholdEntries(const BbpbConfig &cfg)
{
    auto t = static_cast<unsigned>(
        std::ceil(cfg.drain_threshold * cfg.entries));
    return std::clamp(t, 1u, cfg.entries);
}
} // namespace

// ---------------------------------------------------------------------
// Bbpb: the shared engine
// ---------------------------------------------------------------------

Bbpb::Bbpb(const SystemConfig &cfg, EventQueue &eq, MemCtrl &nvmm,
           StatRegistry &stats, const char *group, bool sample_residency)
    : _cfg(cfg), _eq(eq), _nvmm(nvmm),
      _index(static_cast<std::size_t>(cfg.num_cores) * cfg.bbpb.entries),
      _bufs(cfg.num_cores, CoreBuffer(cfg.bbpb.entries)),
      _threshold(thresholdEntries(cfg.bbpb)),
      _sample_residency(sample_residency),
      _reverse_crash_drain(litmusMutation("crash-reverse-drain"))
{
    _stats.registerWith(stats.group(group));
}

Bbpb::Slab &
Bbpb::slab(CoreId c)
{
    BBB_ASSERT(c < _bufs.size(), "bbPB access with bad core id %u", c);
    return _bufs[c].slots;
}

const Bbpb::Slab &
Bbpb::slab(CoreId c) const
{
    BBB_ASSERT(c < _bufs.size(), "bbPB access with bad core id %u", c);
    return _bufs[c].slots;
}

bool
Bbpb::admitsNewEntry(CoreId c) const
{
    return !_low_power && !slab(c).full();
}

void
Bbpb::append(CoreId c, Addr block, const BlockData &data)
{
    Slab &slots = slab(c);
    BBB_ASSERT(!slots.full(),
               "persistStore on full bbPB (missing canAcceptPersist?)");
    std::uint64_t seq = _next_seq++;
    std::uint32_t s = slots.pushBack();
    Entry &e = slots[s];
    e.block = block;
    e.data = data;
    e.seq = seq;
    e.write_seq = seq;
    e.alloc_tick = _eq.now();
    if (OwnershipRef *ref = _index.find(block)) {
        // Only ordered records reach here with the block indexed: a
        // newer record of the same core's stream.
        BBB_ASSERT(ref->core == c,
                   "new entry for block %#llx held by core %u",
                   (unsigned long long)block, ref->core);
        ref->slot = s;
    } else {
        _index.insert(block, {c, s});
    }
    ++_stats.allocations;
    maybeStartDrain(c);
}

void
Bbpb::retire(CoreId c, std::uint32_t s, StatCounter &counter)
{
    if (_sample_residency) {
        _stats.residency_ns.sample(static_cast<std::uint64_t>(
            ticksToNs(_eq.now() - slab(c)[s].alloc_tick)));
    }
    remove(c, s);
    ++counter;
}

void
Bbpb::remove(CoreId c, std::uint32_t s)
{
    Slab &slots = slab(c);
    Entry &e = slots[s];
    if (_index.find(e.block)->slot == s)
        _index.erase(e.block);
    e.block = kBadAddr;
    slots.remove(s);
}

bool
Bbpb::skipLlcWriteback(Addr) const
{
    // Any dirty persistent value either sits in a bbPB (forced drain just
    // handled it) or was already drained; the LLC writeback is redundant.
    return true;
}

bool
Bbpb::holds(CoreId c, Addr block) const
{
    BBB_ASSERT(c < _bufs.size(), "bbPB holds() with bad core id %u", c);
    const OwnershipRef *ref = _index.find(blockAlign(block));
    return ref && ref->core == c;
}

CoreId
Bbpb::holder(Addr block) const
{
    const OwnershipRef *ref = _index.find(blockAlign(block));
    return ref ? ref->core : kNoCore;
}

void
Bbpb::forEachHeld(const std::function<void(CoreId, Addr)> &fn) const
{
    for (CoreId c = 0; c < static_cast<CoreId>(_bufs.size()); ++c) {
        // Walk in allocation order: deterministic. A block spanning
        // several ordered records is reported once, at its newest.
        const Slab &slots = _bufs[c].slots;
        for (std::uint32_t s = slots.head(); s != kNil; s = slots.next(s)) {
            Addr block = slots[s].block;
            if (_index.find(block)->slot == s)
                fn(c, block);
        }
    }
}

std::size_t
Bbpb::occupancy() const
{
    std::size_t n = 0;
    for (const CoreBuffer &buf : _bufs)
        n += buf.slots.size();
    return n;
}

std::size_t
Bbpb::coreOccupancy(CoreId c) const
{
    return slab(c).size();
}

void
Bbpb::maybeStartDrain(CoreId c)
{
    CoreBuffer &buf = _bufs[c];
    if (buf.drain_active || buf.slots.size() < _threshold)
        return;
    buf.drain_active = true;
    _eq.scheduleIn(_cfg.cycles(kBbpbDrainLatencyCycles),
                   [this, c]() { drainStep(c); },
                   EventPriority::DrainComplete);
}

void
Bbpb::drainStep(CoreId c)
{
    CoreBuffer &buf = _bufs[c];
    BBB_ASSERT(buf.drain_active, "drain step without active drain");

    // Entries may have been removed (migration/forced drain) since the
    // step was scheduled; stop when below threshold.
    if (buf.slots.size() < _threshold) {
        buf.drain_active = false;
        return;
    }

    std::uint32_t s = drainVictim(buf.slots);
    const Entry &e = buf.slots[s];
    if (!_nvmm.enqueueWrite(e.block, e.data)) {
        ++_stats.wpq_retries;
        _eq.scheduleIn(_cfg.cycles(kPersistRetryCycles),
                       [this, c]() { drainStep(c); },
                       EventPriority::DrainComplete);
        return;
    }
    retire(c, s, _stats.drains);

    if (buf.slots.size() >= _threshold) {
        // Drains pipeline toward the controller: sustained rate is the
        // injection interval, not the end-to-end transfer latency.
        _eq.scheduleIn(_cfg.cycles(kDrainIssueCycles),
                       [this, c]() { drainStep(c); },
                       EventPriority::DrainComplete);
    } else {
        buf.drain_active = false;
    }
}

void
Bbpb::crashDrain(const PersistSink &sink)
{
    // FCFS order within a core: program order for ordered records, and
    // irrelevant across blocks on the memory side (one entry per block
    // system-wide). The seeded "crash-reverse-drain" mutation streams
    // newest-first, so an exhausted battery sacrifices the *oldest*
    // persists — the prefix violation the litmus harness must catch.
    const bool reversed = _reverse_crash_drain;
    for (CoreBuffer &buf : _bufs) {
        Slab &slots = buf.slots;
        for (std::uint32_t s = reversed ? slots.tail() : slots.head();
             s != kNil; s = reversed ? slots.prev(s) : slots.next(s)) {
            sink(slots[s].block, slots[s].data);
            ++_stats.crash_drained;
        }
        slots.clear();
        buf.drain_active = false;
    }
    _index.clear();
}

// ---------------------------------------------------------------------
// MemSideBbpb
// ---------------------------------------------------------------------

MemSideBbpb::MemSideBbpb(const SystemConfig &cfg, EventQueue &eq,
                         MemCtrl &nvmm, StatRegistry &stats)
    : Bbpb(cfg, eq, nvmm, stats, "bbpb", true),
      _drain_rng(cfg.seed ^ 0xd7a1)
{
}

bool
MemSideBbpb::canAcceptPersist(CoreId c, Addr block)
{
    return holds(c, block) || admitsNewEntry(c); // coalesce, or allocate
}

void
MemSideBbpb::persistStore(CoreId c, Addr addr, unsigned size,
                          const BlockData &line_data)
{
    (void)size;
    Addr block = blockAlign(addr);
    _stats.occupancy.sample(coreOccupancy(c));

    if (const OwnershipRef *ref = _index.find(block)) {
        // The entry is already in the persistence domain; coalescing is
        // unrestricted for the memory-side organisation. A hit on another
        // core's entry is a caller bug: the hierarchy migrates ownership
        // (onInvalidateForWrite) before the store completes (Invariant 4).
        BBB_ASSERT(ref->core == c,
                   "persistStore to block %#llx still held by core %u",
                   (unsigned long long)block, ref->core);
        Entry &e = slab(c)[ref->slot];
        e.data = line_data;
        e.write_seq = _next_seq++;
        ++_stats.coalesces;
        return;
    }
    append(c, block, line_data);
}

void
MemSideBbpb::onInvalidateForWrite(CoreId holder, Addr block)
{
    const OwnershipRef *ref = _index.find(blockAlign(block));
    if (!ref || ref->core != holder)
        return;
    // Fig. 6(a)/(b): ownership migrates with the block; the writer's bbPB
    // takes over the obligation to drain, so no NVMM write happens here.
    remove(holder, ref->slot);
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
    retire(ref->core, ref->slot, _stats.forced_drains);
}

std::uint32_t
MemSideBbpb::drainVictim(const Slab &slots)
{
    BBB_ASSERT(slots.size() > 0, "drain victim from empty bbPB");
    switch (_cfg.bbpb.drain_policy) {
      case DrainPolicy::Fcfs:
        return slots.head();
      case DrainPolicy::Lrw: {
        std::uint32_t best = kNil;
        std::uint64_t oldest_write = ~0ull;
        for (std::uint32_t s = slots.head(); s != kNil; s = slots.next(s)) {
            if (slots[s].write_seq < oldest_write) {
                oldest_write = slots[s].write_seq;
                best = s;
            }
        }
        return best;
      }
      case DrainPolicy::Random: {
        // Victim index in deterministic FCFS order (the map-based
        // implementation sampled hash order, which was equally random
        // but an accident of the container).
        std::uint64_t idx = _drain_rng.below(slots.size());
        std::uint32_t s = slots.head();
        while (idx--)
            s = slots.next(s);
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
        for (CoreId c = 0; c < _cfg.num_cores; ++c) {
            const Slab &slots = slab(c);
            if (slots.head() != kNil && slots[slots.head()].seq < best_seq) {
                best_seq = slots[slots.head()].seq;
                best_c = c;
            }
        }
        if (best_c == kNoCore)
            break; // all buffers empty
        std::uint32_t s = slab(best_c).head();
        const Entry &e = slab(best_c)[s];
        if (!_nvmm.enqueueWrite(e.block, e.data))
            break; // WPQ full
        retire(best_c, s, _stats.proactive_drains);
        ++drained;
    }
    return drained;
}

// ---------------------------------------------------------------------
// ProcSideBbpb
// ---------------------------------------------------------------------

ProcSideBbpb::ProcSideBbpb(const SystemConfig &cfg, EventQueue &eq,
                           MemCtrl &nvmm, StatRegistry &stats)
    : Bbpb(cfg, eq, nvmm, stats, "bbpb_proc", false)
{
}

bool
ProcSideBbpb::canAcceptPersist(CoreId c, Addr)
{
    return admitsNewEntry(c); // records never coalesce
}

void
ProcSideBbpb::persistStore(CoreId c, Addr addr, unsigned size,
                           const BlockData &line_data)
{
    (void)size;
    _stats.occupancy.sample(coreOccupancy(c));
    append(c, blockAlign(addr), line_data);
}

std::uint32_t
ProcSideBbpb::drainVictim(const Slab &slots)
{
    return slots.head();
}

void
ProcSideBbpb::drainPrefixFor(CoreId c, Addr block)
{
    // The index names the block's newest record; everything at or
    // before it must drain first to preserve persist order.
    const OwnershipRef *ref = _index.find(block);
    if (!ref || ref->core != c)
        return; // block not buffered here
    const std::uint32_t last = ref->slot;
    const Slab &slots = slab(c);
    for (;;) {
        std::uint32_t s = slots.head();
        const Entry &e = slots[s];
        // Ordering forbids deferring (younger records would overtake),
        // so a full WPQ escalates to a bypass write rather than dropping
        // or reordering the record.
        if (!_nvmm.enqueueWrite(e.block, e.data))
            _nvmm.forceWrite(e.block, e.data);
        retire(c, s, _stats.forced_drains);
        if (s == last)
            return;
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
ProcSideBbpb::onForcedDrain(Addr block, const BlockData &)
{
    block = blockAlign(block);
    if (const OwnershipRef *ref = _index.find(block))
        drainPrefixFor(ref->core, block);
}

std::uint64_t
ProcSideBbpb::forceDrainOldest(std::uint64_t max_blocks)
{
    // Ordered records only ever leave from the head, so the proactive
    // drain round-robins the per-core heads: per-core persist order is
    // preserved exactly, and cores shed their oldest records fairly.
    std::uint64_t drained = 0;
    bool progress = true;
    while (drained < max_blocks && progress) {
        progress = false;
        for (CoreId c = 0; c < _cfg.num_cores && drained < max_blocks;
             ++c) {
            const Slab &slots = slab(c);
            std::uint32_t s = slots.head();
            if (s == kNil)
                continue;
            if (!_nvmm.enqueueWrite(slots[s].block, slots[s].data))
                return drained; // WPQ full
            retire(c, s, _stats.proactive_drains);
            ++drained;
            progress = true;
        }
    }
    return drained;
}

} // namespace bbb
