/**
 * @file
 * Interface between the cache hierarchy and the persistency scheme.
 *
 * The hierarchy performs loads, stores, flushes, and evictions; at the
 * points where the BBB paper's design intervenes (persisting stores,
 * remote invalidations, LLC evictions of persistent blocks), it calls into
 * a PersistencyBackend. Each persistency mode (ADR/PMEM, eADR, BBB
 * memory-side, BBB processor-side) supplies its own implementation.
 */

#ifndef BBB_CORE_PERSIST_BACKEND_HH
#define BBB_CORE_PERSIST_BACKEND_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "mem/mem_ctrl.hh"
#include "sim/types.hh"

namespace bbb
{

/** One (block address, data) pair in the persistence domain. */
struct PersistRecord
{
    Addr block;
    BlockData data;
};

/** Core cycles to move a block from a bbPB to the WPQ (~L1 to MC). */
constexpr unsigned kBbpbDrainLatencyCycles = 40;

/** Core cycles before a store retries a full bbPB, or a drain the WPQ. */
constexpr unsigned kPersistRetryCycles = 8;

/**
 * Persistency-scheme hooks invoked by the cache hierarchy.
 *
 * All hooks are called at the point the corresponding coherence action is
 * logically performed (our transactions are atomic-with-latency).
 */
class PersistencyBackend
{
  public:
    virtual ~PersistencyBackend() = default;

    /**
     * May a persisting store by core @p c to @p block complete now?
     * For BBB this is false when the core's bbPB is full and the block is
     * not already resident (no coalescing opportunity); the store must
     * retry, stalling the store buffer (a "rejection", Fig. 8a).
     */
    virtual bool canAcceptPersist(CoreId c, Addr block) = 0;

    /**
     * A persisting store completed on core @p c: it wrote @p size bytes at
     * @p addr and the up-to-date full block content is @p line_data.
     * BBB allocates/coalesces a bbPB entry here; ADR/eADR do nothing.
     */
    virtual void persistStore(CoreId c, Addr addr, unsigned size,
                              const BlockData &line_data) = 0;

    /**
     * Core @p holder lost @p block to an invalidation caused by another
     * core's write. Per Fig. 6(a)/(b), the bbPB entry is *removed without
     * draining*: ownership (and the obligation to drain) migrates with the
     * block to the writer, whose persistStore() follows.
     */
    virtual void onInvalidateForWrite(CoreId holder, Addr block) = 0;

    /**
     * @p block is being evicted from the LLC (with back-invalidation of L1
     * copies), or from an L1 in a way that breaks bbPB reachability. Any
     * bbPB entry must drain *now*; @p data is the latest block content.
     */
    virtual void onForcedDrain(Addr block, const BlockData &data) = 0;

    /**
     * Should the LLC skip the NVMM writeback of this dirty persistent
     * block (Section III-E optimisation)? True for BBB: the value already
     * reached the persistence domain through the bbPB.
     */
    virtual bool skipLlcWriteback(Addr block) const = 0;

    /** True if core @p c's bbPB currently holds @p block. */
    virtual bool holds(CoreId c, Addr block) const = 0;

    /**
     * The core whose buffer holds @p block, or kNoCore. Invariant 4
     * guarantees the answer is unique, so the hierarchy's ownership
     * checks (migration on a remote persisting store, forced drain on
     * LLC eviction, the dirty-inclusion walk) are one lookup instead of
     * a per-core probe loop.
     */
    virtual CoreId holder(Addr block) const = 0;

    /**
     * Invoke @p fn(holder, block) once per block currently held in a
     * persist buffer, in a deterministic order. Lets the invariant
     * checker walk the persistence domain from the bbPB side — a held
     * block missing from the LLC would be invisible to an LLC-side walk.
     */
    virtual void
    forEachHeld(const std::function<void(CoreId, Addr)> &fn) const = 0;

    /** Total blocks currently in the backend's persistence buffers. */
    virtual std::size_t occupancy() const = 0;

    /** Receives one (block, data) pair per crash-drained entry. */
    using PersistSink = std::function<void(Addr, const BlockData &)>;

    /**
     * Crash: feed every (block, data) pair held in the backend's part of
     * the persistence domain to @p sink in persist order, clearing the
     * buffers. The crash engine applies the pairs to the NVMM image and
     * charges the battery model as they stream past — no intermediate
     * vector of 64 B copies is built.
     */
    virtual void crashDrain(const PersistSink &sink) = 0;

    /**
     * Graceful degradation (low battery): persistently drain up to
     * @p max_blocks of the *oldest* buffered entries through the normal
     * powered write path, preserving persist order. Returns how many
     * drained. Backends without buffers drain nothing.
     */
    virtual std::uint64_t forceDrainOldest(std::uint64_t max_blocks)
    {
        (void)max_blocks;
        return 0;
    }

    /**
     * Low-power admission control (refuse-dirty policy): while set, the
     * backend only accepts persisting stores that coalesce into blocks
     * it already holds — no new dirty blocks enter the persistence
     * buffers. Default no-op for bufferless backends.
     */
    virtual void setLowPower(bool on) { (void)on; }

    /** Convenience crashDrain() that materialises the records (tests). */
    std::vector<PersistRecord>
    crashDrainRecords()
    {
        std::vector<PersistRecord> out;
        crashDrain([&](Addr block, const BlockData &data) {
            out.push_back({block, data});
        });
        return out;
    }
};

/**
 * Backend for ADR-only systems (PMEM and unsafe modes) and eADR: no
 * persist buffers, every hook is a no-op. eADR's crash-time cache drain is
 * performed by the crash engine directly from the cache arrays.
 */
class NullPersistencyBackend : public PersistencyBackend
{
  public:
    bool canAcceptPersist(CoreId, Addr) override { return true; }
    void persistStore(CoreId, Addr, unsigned, const BlockData &) override {}
    void onInvalidateForWrite(CoreId, Addr) override {}
    void onForcedDrain(Addr, const BlockData &) override {}
    bool skipLlcWriteback(Addr) const override { return false; }
    bool holds(CoreId, Addr) const override { return false; }
    CoreId holder(Addr) const override { return kNoCore; }
    void
    forEachHeld(const std::function<void(CoreId, Addr)> &) const override
    {
    }
    std::size_t occupancy() const override { return 0; }
    void crashDrain(const PersistSink &) override {}
};

} // namespace bbb

#endif // BBB_CORE_PERSIST_BACKEND_HH
