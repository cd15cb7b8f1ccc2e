/**
 * @file
 * Two-level cache hierarchy with directory MESI coherence and persistency
 * hooks.
 *
 * Structure (Table III of the paper): per-core private L1D caches and a
 * shared, inclusive LLC that holds the coherence directory (a sharer
 * bitmask and an exclusive owner per line). Coherence transactions are
 * modelled atomically: all state changes happen at the call, and the call
 * returns the latency the requesting core observes. Channel contention at
 * the memory controllers is carried through their internal next-free
 * bookkeeping.
 *
 * The BBB-specific behaviour (bbPB allocation on persisting stores, entry
 * migration on invalidation, forced drains on eviction, LLC writeback
 * skipping) enters through the PersistencyBackend hook interface, so the
 * same hierarchy serves every persistency mode.
 */

#ifndef BBB_CACHE_HIERARCHY_HH
#define BBB_CACHE_HIERARCHY_HH

#include <cstdint>
#include <vector>

#include "cache/cache_array.hh"
#include "cache/mesi.hh"
#include "core/persist_backend.hh"
#include "mem/addr_map.hh"
#include "mem/mem_ctrl.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace bbb
{

/** Private L1D line payload (the array holds its block and stamp). */
struct L1Line
{
    Mesi state = Mesi::Invalid;
    BlockData data;
};

/** Shared LLC line payload with embedded directory state. */
struct LlcLine
{
    bool dirty = false;
    /** Block maps to the persistent NVMM range (drives writeback skip). */
    bool persistent = false;
    /** Bitmask of cores with a (possibly S) L1 copy. */
    std::uint64_t sharers = 0;
    /** Core holding the line in M or E, or kNoCore. */
    CoreId owner = kNoCore;
    BlockData data;
};

/** Outcome of a store attempt. */
enum class StoreStatus
{
    Done,
    /** Persisting store rejected: bbPB full and no coalescing possible. */
    RetryPersist,
};

/** Latency + status pair returned by hierarchy operations. */
struct AccessResult
{
    Tick latency = 0;
    StoreStatus status = StoreStatus::Done;
};

/** Snapshot of dirty-block occupancy, for the energy model. */
struct DirtyStats
{
    std::uint64_t l1_dirty_blocks = 0;
    std::uint64_t l1_valid_blocks = 0;
    std::uint64_t llc_dirty_blocks = 0;
    std::uint64_t llc_valid_blocks = 0;
};

/** The two-level coherent hierarchy. */
class CacheHierarchy
{
  public:
    CacheHierarchy(const SystemConfig &cfg, const AddrMap &map,
                   EventQueue &eq, MemCtrl &dram, MemCtrl &nvmm,
                   StatRegistry &stats);

    /** Install the persistency backend (must outlive the hierarchy). */
    void setBackend(PersistencyBackend *backend) { _backend = backend; }

    /**
     * Core @p c loads @p size bytes at @p addr into @p out.
     * @p addr..addr+size must lie within one cache block.
     */
    AccessResult load(CoreId c, Addr addr, unsigned size, void *out);

    /**
     * Core @p c stores @p size bytes at @p addr. For persisting stores the
     * backend may reject (RetryPersist) without any state change.
     */
    AccessResult store(CoreId c, Addr addr, unsigned size, const void *src);

    /**
     * clwb-style writeback: push the block's current value to its memory
     * controller (durable at WPQ for NVMM) and leave a clean copy cached.
     * Returns the latency until the value is accepted by the controller.
     */
    Tick flushBlock(CoreId c, Addr addr);

    /** Architectural (coherence-ordered freshest) value, zero latency. */
    void peek(Addr addr, unsigned size, void *out);

    /**
     * Collect every dirty block in the hierarchy whose address is in the
     * NVMM range: the eADR flush-on-fail drain set. L1 M data supersedes
     * LLC data. Does not modify state.
     * @param from_l1 if non-null, receives the number of records whose
     *        data came from an L1 M copy (for the energy split).
     */
    std::vector<PersistRecord>
    collectDirtyNvmm(std::uint64_t *from_l1 = nullptr) const;

    /** collectDirtyNvmm().size(), counted in place. */
    std::uint64_t countDirtyNvmm() const;

    /** Dirty/valid block counts per level (whole hierarchy). */
    DirtyStats dirtyStats() const;

    /**
     * Verify structural invariants: LLC inclusive of L1s, directory
     * consistency, single-writer, bbPB residency implies L1+LLC residency
     * in exactly one core. panic()s on violation (test hook).
     */
    void checkInvariants() const;

    const AddrMap &addrMap() const { return _map; }

    /** Memory operations (loads + stores) performed so far — the "op"
     *  that `sim.ops` reports. */
    std::uint64_t memOps() const
    {
        return _loads.value() + _stores.value();
    }

  private:
    /** The owner's L1 copy of LLC-resident @p block when it is Modified
     *  (its data supersedes the LLC's), else nullptr. */
    const L1Line *modifiedL1Copy(Addr block, const LlcLine &line) const;

    /** Ensure core @p c's L1 holds @p block with at least S permission.
     *  Returns the line; adds latency to @p lat. */
    L1Line &getForRead(CoreId c, Addr block, Tick &lat);

    /** Ensure core @p c's L1 holds @p block in M. Adds latency. */
    L1Line &getForWrite(CoreId c, Addr block, Tick &lat);

    /** Ensure the LLC holds @p block (fetching from memory, possibly
     *  evicting). Returns the line; adds latency. */
    LlcLine &getLlcLine(Addr block, Tick &lat);

    /** Install @p block into core @p c's L1 (evicting as needed). */
    L1Line &installL1(CoreId c, Addr block, Tick &lat);

    /** Handle eviction of a valid L1 line (writeback + directory). */
    void evictL1Line(CoreId c, L1Line &line, Tick &lat);

    /** Handle eviction of a valid LLC line (back-invalidate, forced
     *  drains, writeback or skip). */
    void evictLlcLine(LlcLine &line, Tick &lat);

    /** Pull the freshest data for an LLC line from a remote M owner. */
    void fetchFromOwner(LlcLine &llc_line, Tick &lat);

    /** Write @p data to the block's memory controller (force on full). */
    void writebackToMemory(Addr block, const BlockData &data, Tick &lat);

    MemCtrl &ctrlFor(Addr block);

    SystemConfig _cfg;
    AddrMap _map;
    EventQueue &_eq;
    MemCtrl &_dram;
    MemCtrl &_nvmm;
    PersistencyBackend *_backend;
    NullPersistencyBackend _null_backend;

    std::vector<CacheArray<L1Line>> _l1;
    CacheArray<LlcLine> _llc;

    Tick _l1_lat;
    Tick _llc_lat;

    // Statistics
    StatCounter _loads;
    StatCounter _stores;
    StatCounter _persisting_stores;  ///< stores to the persistent range
    StatCounter _l1_hits;
    StatCounter _l1_misses;
    StatCounter _llc_hits;
    StatCounter _llc_misses;
    StatCounter _interventions;      ///< remote M/E copies downgraded
    StatCounter _upgrades;           ///< S->M upgrade transactions
    StatCounter _invalidations;      ///< L1 copies killed by remote writes
    StatCounter _l1_writebacks;      ///< dirty L1 victims written to LLC
    StatCounter _llc_writebacks;     ///< dirty LLC victims written to memory
    StatCounter _skipped_writebacks; ///< persistent LLC victims (BBB)
    StatCounter _forced_drains;      ///< bbPB drains forced by evictions
    StatCounter _flushes;            ///< explicit clwb-style flushes
};

} // namespace bbb

#endif // BBB_CACHE_HIERARCHY_HH
