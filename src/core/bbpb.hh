/**
 * @file
 * Battery-backed persist buffers (bbPB) — the paper's core contribution.
 *
 * One persist-buffer engine, two organisations from Section III-B. The
 * Bbpb base owns what they share: per-core slabs of cfg.bbpb.entries
 * slots kept in allocation order (sim/slot_fifo.hh), one system-wide
 * OwnershipIndex (block -> (core, slot)), the event-driven drain engine
 * that feeds the NVMM controller's WPQ under the occupancy-threshold
 * policy of Section III-F, the crash drain, and low-power admission.
 *
 *  - MemSideBbpb: the design the paper chooses. Each entry is one cache
 *    block already inside the persistence domain, so stores coalesce
 *    freely and entries drain out of order (we use FCFS as the paper
 *    does). A block lives in at most one bbPB (Invariant 4); coherence
 *    moves ownership between bbPBs without draining.
 *
 *  - ProcSideBbpb: the comparison design. Entries are ordered store
 *    records that never coalesce; records drain strictly in order from
 *    the head and every record produces an NVMM write (Section V-C
 *    reports ~2.8x the writes of eADR).
 *
 * Storage is allocation-free after construction, mirroring the paper's
 * "tiny fixed SRAM" framing. The index maps a block to the slot of its
 * newest entry — the only one on the memory side — so
 * holds()/holder()/migration are O(1).
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
    StatHistogram occupancy{33, 1}; ///< occupancy seen at allocation
    /** Entry lifetime from allocation to drain, in nanoseconds: how long
     *  a value enjoys coalescing before it costs an NVMM write. Sampled
     *  by the memory side only. */
    StatHistogram residency_ns{32, 250};

    void registerWith(StatGroup &g);
};

/**
 * The persist-buffer engine both organisations run on (see file
 * comment). Subclasses supply admission, the drain victim, the
 * coherence hooks and the low-battery drain order.
 */
class Bbpb : public PersistencyBackend
{
  public:
    /** Scheduled drain steps hold `this`. */
    Bbpb(const Bbpb &) = delete;
    Bbpb &operator=(const Bbpb &) = delete;

    bool skipLlcWriteback(Addr block) const override;
    bool holds(CoreId c, Addr block) const override;
    CoreId holder(Addr block) const override;
    void forEachHeld(
        const std::function<void(CoreId, Addr)> &fn) const override;
    std::size_t occupancy() const override;
    void crashDrain(const PersistSink &sink) override;
    void setLowPower(bool on) override { _low_power = on; }

    /** Occupancy of one core's buffer. */
    std::size_t coreOccupancy(CoreId c) const;

    /** Entries at or above which draining runs. */
    unsigned drainThresholdEntries() const { return _threshold; }

    const BbpbStats &stats() const { return _stats; }

  protected:
    /**
     * One slab slot. Live slots sit on the per-core list in allocation
     * order (oldest at the head — seq order, since coalescing never
     * relinks).
     */
    struct Entry
    {
        BlockData data;
        Addr block = kBadAddr;
        std::uint64_t seq = 0;       ///< allocation order, FCFS draining
        std::uint64_t write_seq = 0; ///< last coalescing write, for LRW
        Tick alloc_tick = 0;         ///< allocation time, residency stats
    };

    using Slab = SlotFifo<Entry>;
    static constexpr std::uint32_t kNil = Slab::kNil;

    /** Registers the stats under @p group; @p sample_residency turns on
     *  the residency_ns histogram. */
    Bbpb(const SystemConfig &cfg, EventQueue &eq, MemCtrl &nvmm,
         StatRegistry &stats, const char *group, bool sample_residency);

    Slab &slab(CoreId c);
    const Slab &slab(CoreId c) const;

    /** May core @p c allocate a new entry? Refuse-dirty: not while
     *  charge is low, and only into a free slot. */
    bool admitsNewEntry(CoreId c) const;

    /** Append an entry for @p block holding @p data at core @p c's tail,
     *  index it as the block's newest entry, and start the drain engine
     *  if the buffer reached the threshold. */
    void append(CoreId c, Addr block, const BlockData &data);

    /** Entry @p s of core @p c reached the WPQ: count it in @p counter,
     *  sample its residency, and free it. */
    void retire(CoreId c, std::uint32_t s, StatCounter &counter);

    /** Unlink and free slot @p s of core @p c; the block leaves the
     *  index with its newest entry. */
    void remove(CoreId c, std::uint32_t s);

    /** The slot the drain engine writes back next from @p slots. */
    virtual std::uint32_t drainVictim(const Slab &slots) = 0;

    const SystemConfig _cfg;
    EventQueue &_eq;
    MemCtrl &_nvmm;
    OwnershipIndex _index;
    std::uint64_t _next_seq = 0;
    BbpbStats _stats;

  private:
    struct CoreBuffer
    {
        explicit CoreBuffer(std::size_t entries) : slots(entries) {}

        Slab slots; ///< fixed at cfg.bbpb.entries, allocation order
        bool drain_active = false;
    };

    /** Start the drain engine for core @p c if policy demands it. */
    void maybeStartDrain(CoreId c);

    /** One drain step: move the victim entry toward the WPQ. */
    void drainStep(CoreId c);

    std::vector<CoreBuffer> _bufs;
    const unsigned _threshold;
    const bool _sample_residency;
    /** The seeded "crash-reverse-drain" litmus mutation (read once). */
    const bool _reverse_crash_drain;
    bool _low_power = false;
};

/**
 * Memory-side battery-backed persist buffers, one buffer per core.
 */
class MemSideBbpb : public Bbpb
{
  public:
    MemSideBbpb(const SystemConfig &cfg, EventQueue &eq, MemCtrl &nvmm,
                StatRegistry &stats);

    bool canAcceptPersist(CoreId c, Addr block) override;
    void persistStore(CoreId c, Addr addr, unsigned size,
                      const BlockData &line_data) override;
    void onInvalidateForWrite(CoreId holder, Addr block) override;
    void onForcedDrain(Addr block, const BlockData &data) override;
    std::uint64_t forceDrainOldest(std::uint64_t max_blocks) override;

  private:
    /** The slot cfg.bbpb.drain_policy evicts next. */
    std::uint32_t drainVictim(const Slab &slots) override;

    Rng _drain_rng;
};

/**
 * Processor-side persist buffers: ordered store records per core.
 */
class ProcSideBbpb : public Bbpb
{
  public:
    ProcSideBbpb(const SystemConfig &cfg, EventQueue &eq, MemCtrl &nvmm,
                 StatRegistry &stats);

    bool canAcceptPersist(CoreId c, Addr block) override;
    void persistStore(CoreId c, Addr addr, unsigned size,
                      const BlockData &line_data) override;
    void onInvalidateForWrite(CoreId holder, Addr block) override;
    void onForcedDrain(Addr block, const BlockData &data) override;
    std::uint64_t forceDrainOldest(std::uint64_t max_blocks) override;

  private:
    /** Records drain in program order: always the head. */
    std::uint32_t drainVictim(const Slab &slots) override;

    /** Synchronously drain records from the head up to and including
     *  the last record for @p block (ordering must be preserved). */
    void drainPrefixFor(CoreId c, Addr block);
};

} // namespace bbb

#endif // BBB_CORE_BBPB_HH
