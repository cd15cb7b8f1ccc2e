/**
 * @file
 * Battery-backed persist buffers (bbPB) — the paper's core contribution.
 *
 * Two organisations from Section III-B:
 *
 *  - MemSideBbpb: the design the paper chooses. Each entry is one cache
 *    block already inside the persistence domain, so stores coalesce
 *    freely and entries drain out of order (we use FCFS as the paper
 *    does). A block lives in at most one bbPB (Invariant 4); coherence
 *    moves ownership between bbPBs without draining.
 *
 *  - ProcSideBbpb: the comparison design. Entries are ordered store
 *    records; coalescing is only permitted between consecutive records to
 *    the same block; records drain strictly in order and every record
 *    produces an NVMM write (Section V-C reports ~2.8x the writes of
 *    eADR).
 *
 * Both implement the PersistencyBackend hooks the cache hierarchy calls,
 * and both run an event-driven drain engine against the NVMM controller's
 * WPQ with the occupancy-threshold policy of Section III-F.
 *
 * Storage is allocation-free after construction, mirroring the paper's
 * "tiny fixed SRAM" framing: the memory-side buffers are per-core slabs
 * of cfg.bbpb.entries slots in FCFS order (sim/slot_fifo.hh), the
 * processor-side buffers are fixed rings, and
 * both resolve ownership through one system-wide OwnershipIndex
 * (block -> (core, slot)), so holds()/holder()/migration are O(1).
 */

#ifndef BBB_CORE_BBPB_HH
#define BBB_CORE_BBPB_HH

#include <cstdint>
#include <vector>

#include "core/ownership_index.hh"
#include "core/persist_backend.hh"
#include "mem/mem_ctrl.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/slot_fifo.hh"
#include "sim/stats.hh"

namespace bbb
{

/** Per-core statistics shared by both bbPB organisations. */
struct BbpbStats
{
    StatCounter allocations;    ///< entries newly allocated
    StatCounter coalesces;      ///< stores merged into a live entry
    StatCounter drains;         ///< entries drained to the WPQ (policy)
    StatCounter forced_drains;  ///< entries drained by eviction pressure
    StatCounter migrations;     ///< entries dropped: block moved cores
    StatCounter wpq_retries;    ///< drain attempts stalled by a full WPQ
    StatCounter crash_drained;  ///< entries drained at crash time
    StatCounter proactive_drains; ///< entries drained on low battery
    StatHistogram occupancy{33, 1};
    /** Entry lifetime from allocation to drain, in nanoseconds: how long
     *  a value enjoys coalescing before it costs an NVMM write. */
    StatHistogram residency_ns{32, 250};

    void registerWith(StatGroup &g);
};

/**
 * Memory-side battery-backed persist buffers, one buffer per core.
 */
class MemSideBbpb : public PersistencyBackend
{
  public:
    MemSideBbpb(const SystemConfig &cfg, EventQueue &eq, MemCtrl &nvmm,
                StatRegistry &stats);

    // PersistencyBackend interface
    bool canAcceptPersist(CoreId c, Addr block) override;
    void persistStore(CoreId c, Addr addr, unsigned size,
                      const BlockData &line_data) override;
    void onInvalidateForWrite(CoreId holder, Addr block) override;
    void onForcedDrain(Addr block, const BlockData &data) override;
    bool skipLlcWriteback(Addr block) const override;
    bool holds(CoreId c, Addr block) const override;
    CoreId holder(Addr block) const override;
    void forEachHeld(
        const std::function<void(CoreId, Addr)> &fn) const override;
    std::size_t occupancy() const override;
    void crashDrain(const PersistSink &sink) override;
    std::uint64_t forceDrainOldest(std::uint64_t max_blocks) override;
    void setLowPower(bool on) override { _low_power = on; }

    /** Occupancy of one core's buffer. */
    std::size_t coreOccupancy(CoreId c) const;

    /** Entries at or above which draining runs. */
    unsigned drainThresholdEntries() const { return _threshold; }

    const BbpbStats &stats() const { return _stats; }

  private:
    /**
     * One slab slot. Live slots sit on the per-core FCFS list (oldest
     * allocation at the head — seq order, since coalescing never relinks).
     */
    struct Slot
    {
        BlockData data;
        Addr block = kBadAddr;
        std::uint64_t seq = 0;       ///< allocation order, FCFS draining
        std::uint64_t write_seq = 0; ///< last coalescing write, for LRW
        Tick alloc_tick = 0;         ///< allocation time, residency stats
    };

    using Slab = SlotFifo<Slot>;
    static constexpr std::uint32_t kNil = Slab::kNil;

    struct CoreBuffer
    {
        explicit CoreBuffer(std::size_t entries) : slots(entries) {}

        Slab slots; ///< fixed at cfg.bbpb.entries, FCFS order
        bool drain_active = false;
    };

    CoreBuffer &buffer(CoreId c);
    const CoreBuffer &buffer(CoreId c) const;

    /** Allocate a free slot for @p block and append it to the FCFS tail. */
    std::uint32_t allocSlot(CoreId c, CoreBuffer &buf, Addr block);

    /** Unlink slot @p s from core @p c's FCFS list, free it, and drop the
     *  block from the ownership index. */
    void removeSlot(CoreId c, CoreBuffer &buf, std::uint32_t s);

    /** Pick the slot the drain policy evicts next from @p buf. */
    std::uint32_t drainVictim(const CoreBuffer &buf);

    /** Start the drain engine for core @p c if policy demands it. */
    void maybeStartDrain(CoreId c);

    /** One drain step: move the FCFS-oldest entry toward the WPQ. */
    void drainStep(CoreId c);

    SystemConfig _cfg;
    EventQueue &_eq;
    MemCtrl &_nvmm;
    std::vector<CoreBuffer> _bufs;
    OwnershipIndex _index;
    std::uint64_t _next_seq = 0;
    unsigned _threshold;
    Rng _drain_rng;
    bool _low_power = false;
    BbpbStats _stats;
};

/**
 * Processor-side persist buffers: ordered store records per core.
 */
class ProcSideBbpb : public PersistencyBackend
{
  public:
    ProcSideBbpb(const SystemConfig &cfg, EventQueue &eq, MemCtrl &nvmm,
                 StatRegistry &stats);

    bool canAcceptPersist(CoreId c, Addr block) override;
    void persistStore(CoreId c, Addr addr, unsigned size,
                      const BlockData &line_data) override;
    void onInvalidateForWrite(CoreId holder, Addr block) override;
    void onForcedDrain(Addr block, const BlockData &data) override;
    bool skipLlcWriteback(Addr block) const override;
    bool holds(CoreId c, Addr block) const override;
    CoreId holder(Addr block) const override;
    void forEachHeld(
        const std::function<void(CoreId, Addr)> &fn) const override;
    std::size_t occupancy() const override;
    void crashDrain(const PersistSink &sink) override;
    std::uint64_t forceDrainOldest(std::uint64_t max_blocks) override;
    void setLowPower(bool on) override { _low_power = on; }

    std::size_t coreOccupancy(CoreId c) const;

    const BbpbStats &stats() const { return _stats; }

  private:
    struct Record
    {
        Addr block = kBadAddr;
        BlockData data;
        /**
         * Ordered records permit only the paper's special case: "two
         * stores [that] are subsequent and involve the same block" may
         * share an entry, so each record absorbs at most one extra store.
         */
        bool coalesced_once = false;
    };

    /** Fixed ring of ordered records; front (head) is the oldest. */
    struct CoreBuffer
    {
        std::vector<Record> ring; ///< fixed at cfg.bbpb.entries
        std::uint32_t head = 0;
        std::uint32_t count = 0;
        bool drain_active = false;
    };

    Record &recordAt(CoreBuffer &buf, std::uint32_t i);
    const Record &recordAt(const CoreBuffer &buf, std::uint32_t i) const;

    /** Count one more record for @p block in @p c's ring (index refcount
     *  — a block may span several ordered records of one core). */
    void indexAddRecord(CoreId c, Addr block);

    /** Drop one record's worth of refcount for @p block. */
    void indexDropRecord(Addr block);

    /** Pop the front record, releasing its index refcount. */
    void popFront(CoreBuffer &buf);

    void maybeStartDrain(CoreId c);
    void drainStep(CoreId c);

    /** Synchronously drain records from the front up to and including the
     *  last record for @p block (ordering must be preserved). */
    void drainPrefixFor(CoreId c, Addr block);

    SystemConfig _cfg;
    EventQueue &_eq;
    MemCtrl &_nvmm;
    std::vector<CoreBuffer> _bufs;
    OwnershipIndex _index;
    unsigned _threshold;
    bool _low_power = false;
    BbpbStats _stats;
};

} // namespace bbb

#endif // BBB_CORE_BBPB_HH
