/**
 * @file
 * Memory controller with a write-pending queue (WPQ) and a banked media
 * timing model.
 *
 * The NVMM controller's WPQ is the ADR persistence domain: a block accepted
 * into the WPQ is durable (it will drain on power failure). Media writes
 * retire from the WPQ through per-channel bandwidth; blocks are interleaved
 * across channels at cache-block granularity.
 *
 * The controller is the only writer of NVMM media (an FTL backend's own
 * wear-leveling migrations aside). Every block that reaches media -- a
 * WPQ retirement, a force write past a full WPQ, or a crash-time
 * flush-on-fail drain -- goes through one write attempt
 * (attemptWrite()), which is also the one place the fault layer and the
 * media meet: the attempt draws the plan's failure chance, commits the
 * whole block or (retries exhausted) its torn half, files the outcome
 * in the fault ledger, and counts it. The fault injector only decides
 * and records; it never touches media.
 *
 * The controller never touches the backing store itself: every media
 * commit and read goes through its MediaBackend (mem/media_backend.hh),
 * which is a pass-through (DirectMedia) or an FTL-style endurance model
 * (FtlMedia). The controller lends the backend its per-channel timing
 * (MediaTiming), so backend-generated background traffic contends with
 * demand writes for the same bandwidth.
 *
 * The same class models the DRAM controller (no WPQ persistence semantics,
 * writes are accepted unconditionally and retire through channel timing).
 */

#ifndef BBB_MEM_MEM_CTRL_HH
#define BBB_MEM_MEM_CTRL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/media_backend.hh"
#include "sim/block_table.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/slot_fifo.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace bbb
{

class FaultInjector;

/** How one media write attempt of a block ended. */
enum class MediaAttempt
{
    Landed, ///< the whole block reached media
    Retry,  ///< the attempt failed and may be retried
    Torn,   ///< retries exhausted: only the block's first half landed
};

/**
 * One memory controller (DRAM or NVMM).
 *
 * Timing: each channel is a resource with a next-free tick; a read or a
 * media write occupies its block's channel for the configured latency.
 * Reads are modelled as latency returned to the caller; media writes are
 * asynchronous retirements from the WPQ.
 */
class MemCtrl : private MediaTiming
{
  public:
    MemCtrl(std::string name, const MemConfig &cfg, EventQueue &eq,
            MediaBackend &media, StatRegistry &stats);

    /** --- Read path ------------------------------------------------- */

    /**
     * Compute the latency of reading the block at @p addr now, reserving
     * channel bandwidth, and fetch its current content (WPQ-forwarded if
     * pending) into @p out.
     */
    Tick readBlock(Addr addr, BlockData &out);

    /** --- Write path ------------------------------------------------ */

    /**
     * Offer a block to the WPQ.
     * @return false if the WPQ is full; on success the block is durable
     *         (for the NVMM controller) and will retire to media
     *         asynchronously. Writes to a block already pending coalesce
     *         in place.
     *
     * The return is [[nodiscard]] on purpose: a dropped false is a
     * silently lost store. Every caller must either retry later
     * (charging the stall) or escalate to forceWrite() when the write
     * must land now (evictions, synchronous drains).
     */
    [[nodiscard]] bool enqueueWrite(Addr addr, const BlockData &data);

    /** True if a subsequent enqueueWrite() would be accepted. */
    bool canAcceptWrite(Addr addr) const;

    /**
     * Commit a block to media immediately, bypassing the WPQ. Used when
     * a write that must land now (an eviction writeback, a forced bbPB
     * drain) finds the WPQ full; the caller charges the stall as
     * latency, and any fault retries fold into that synchronous cost.
     */
    void forceWrite(Addr addr, const BlockData &data);

    /** Freshest content of a block (WPQ-forwarded), no timing effect. */
    void peekBlock(Addr addr, BlockData &out) const;

    /** Number of blocks currently pending in the WPQ. */
    std::size_t wpqOccupancy() const { return _wpq.size(); }

    /** The media backend this controller commits through. */
    MediaBackend &media() { return _media; }

    /** --- Fault injection -------------------------------------------- */

    /**
     * Attach a fault injector: every media write (retirement, force
     * write, crash drain) then fails with the plan's probability,
     * retrying with exponential backoff (charged as extra retirement
     * latency in the WPQ) and tearing the block on terminal failure.
     * nullptr (the default) restores perfectly reliable media.
     */
    void setFaultInjector(FaultInjector *faults) { _faults = faults; }

    /** --- Crash support ---------------------------------------------- */

    /**
     * Crash-time handover to the crash engine: return the pending WPQ
     * blocks in FIFO (oldest-first) order and clear the queue. The
     * engine owns the budgeted drain of these records and commits each
     * survivor back through writeThrough().
     *
     * Also resets the in-flight retirement bookkeeping: the epoch bump
     * invalidates every scheduled completeRetire() (their entries are
     * gone — the crash engine owns them now), and the channel
     * next-free ticks are cleared so a reseeded post-crash controller
     * never inherits stale channel state.
     */
    std::vector<std::pair<Addr, BlockData>> takeWpqForCrash();

    /**
     * Commit @p data to @p block synchronously, past the WPQ and with no
     * timing: attempt until the write lands or tears. This is the crash
     * engine's flush-on-fail commit of a drained WPQ, bbPB or eADR block
     * and forceWrite()'s bypass. Sets @p retries to the failed attempts
     * retried; returns Landed or Torn.
     */
    MediaAttempt writeThrough(Addr block, const BlockData &data,
                              unsigned &retries);

    /**
     * Flush-on-fail patch of a battery-backed store-buffer entry's
     * bytes. A patch onto a ledgered block rides into its intended
     * content too, so the ledger repair never rolls it back.
     */
    void crashPatch(Addr addr, const void *src, unsigned size);

    /** The reboot "mount" once the drain is done (see MediaBackend). */
    void crashMount() { _media.onCrashComplete(); }

    /** --- Stats ------------------------------------------------------ */

    std::uint64_t mediaWrites() const { return _media_writes.value(); }
    std::uint64_t mediaReads() const { return _media_reads.value(); }

    const std::string &name() const { return _name; }

  private:
    /** Channel a block maps to. */
    unsigned
    channelOf(Addr addr) const
    {
        return mediaChannelOf(addr, _cfg.channels);
    }

    /** Reserve @p busy ticks on @p channel starting no earlier than now;
     *  returns the start tick. */
    Tick reserveChannel(unsigned channel, Tick busy);

    /** MediaTiming: lend the backend the same channel model. */
    Tick
    reserveMediaChannel(unsigned channel, Tick busy) override
    {
        return reserveChannel(channel, busy);
    }
    Tick mediaReadOccupancy() const override { return _cfg.read_occupancy; }
    Tick mediaWriteOccupancy() const override
    {
        return _cfg.write_occupancy;
    }

    /**
     * Start the media write of the entry in @p slot: reserve its
     * channel and schedule its completeRetire(). Every entry gets
     * exactly one retire event, at insert; a retry re-schedules the
     * same entry from completeRetire().
     */
    void scheduleRetire(std::uint32_t slot);

    /**
     * Media write for the entry in @p slot finished: commit it through
     * the backend. @p epoch is the WPQ epoch the write was scheduled in;
     * a crash handover bumps the epoch, so a stale event returns without
     * touching the (reseeded) queue.
     */
    void completeRetire(std::uint32_t slot, std::uint64_t epoch);

    /**
     * One media write attempt of @p data to @p block, the only path by
     * which a block reaches media. @p failed is the number of earlier
     * failed attempts of this write. Draws the plan's failure chance
     * (nothing when no media faults are planned); a failure with
     * retries left returns Retry, the last one commits the torn half
     * and ledgers the intended content, and a success commits the whole
     * block and clears any stale ledger entry.
     */
    MediaAttempt attemptWrite(Addr block, const BlockData &data,
                              unsigned failed);

    /** One pending WPQ block. */
    struct WpqEntry
    {
        Addr addr = kBadAddr; ///< kBadAddr while the slot is free
        BlockData data;
        /** Failed media attempts so far (fault injection). */
        unsigned attempts = 0;
    };

    using Wpq = SlotFifo<WpqEntry>;

    std::string _name;
    MemConfig _cfg;
    EventQueue &_eq;
    MediaBackend &_media;
    FaultInjector *_faults = nullptr;

    /**
     * Pending writes: wpq_entries fixed slots in FIFO (insertion) order.
     * Retirements complete out of order across channels and fault
     * retries, so entries leave from anywhere in the list. The block
     * index maps a pending block to its slot for coalescing and read
     * forwarding.
     */
    Wpq _wpq;
    BlockTable<std::uint32_t> _wpq_index;

    /** Bumped whenever the WPQ is cleared wholesale (crash handover);
     *  orphans any still-scheduled retirements. */
    std::uint64_t _wpq_epoch = 0;

    std::vector<Tick> _channel_free;

    StatCounter _media_reads;
    StatCounter _media_writes;
    StatCounter _bytes_written;
    StatCounter _wpq_coalesces;
    StatCounter _wpq_rejects;
    StatCounter _wpq_inserts;
    StatCounter _wpq_bypass_writes;
    StatCounter _media_retry_writes;
    StatAverage _read_latency;
    StatHistogram _wpq_occupancy;
};

} // namespace bbb

#endif // BBB_MEM_MEM_CTRL_HH
