/**
 * @file
 * FaultInjector: the runtime side of a FaultPlan.
 *
 * One injector is owned by a System and threaded through the two places
 * the plan's faults act:
 *
 *  - the NVMM controller's media writes (runtime and crash time): every
 *    write attempt may fail; bounded retries back off exponentially and
 *    are latency-charged; a terminal failure tears the 64 B block,
 *    leaving only its first half in the image;
 *  - the crash engine's flush-on-fail drain: every drained byte charges
 *    the Joule budget; when it runs out the remaining (younger) blocks
 *    are sacrificed, and an optional mid-drain re-crash shrinks the
 *    residual budget.
 *
 * The injector also keeps the *fault ledger* recovery oracles need: the
 * intended content of every block the faults damaged (sacrificed at
 * crash time, or torn by media failures). Applying the ledger to a
 * post-crash image must yield a consistent structure — if it does not,
 * the damage is NOT explained by the injected faults and the run is a
 * genuine persistency bug (see recover/lifetime.hh).
 *
 * All randomness comes from one deterministic stream seeded by
 * FaultPlan::fault_seed, drawn only on the single simulation thread, so
 * every fault schedule is exactly reproducible from the plan token.
 */

#ifndef BBB_FAULT_FAULT_INJECTOR_HH
#define BBB_FAULT_FAULT_INJECTOR_HH

#include <cstdint>
#include <map>
#include <vector>

#include "fault/fault_plan.hh"
#include "mem/backing_store.hh"
#include "mem/block_data.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace bbb
{

class MediaBackend;

/**
 * Fault-layer counters. A System owns one instance registered under the
 * "fault" stat group (so snapshots carry `fault.torn_blocks` etc. even
 * when no plan is armed); a standalone FaultInjector falls back to an
 * internal instance. Re-arming a plan resets them: the counters describe
 * the currently-armed plan's run, matching the injector's own lifetime.
 */
struct FaultStats
{
    StatCounter torn_blocks;       ///< blocks torn by terminal failures
    StatCounter media_retries;     ///< failed media attempts retried
    StatCounter sacrificed_blocks; ///< crash-time items lost to battery
    StatCounter retired_frames;    ///< media frames retired into the ledger

    void
    registerWith(StatGroup &g)
    {
        g.addCounter("torn_blocks", &torn_blocks,
                     "blocks torn by terminal media write failures");
        g.addCounter("media_retries", &media_retries,
                     "media write retries taken");
        g.addCounter("sacrificed_blocks", &sacrificed_blocks,
                     "persistence-domain items lost to the battery");
        g.addCounter("retired_frames", &retired_frames,
                     "media frames retired at the endurance limit");
    }

    void
    reset()
    {
        torn_blocks.reset();
        media_retries.reset();
        sacrificed_blocks.reset();
        retired_frames.reset();
    }
};

/** How one media write attempt sequence ended. */
struct MediaWriteOutcome
{
    /** Terminal failure: only the first half of the block was written. */
    bool torn = false;
    /** Failed attempts before success/tearing (0 on a clean write). */
    unsigned retries = 0;
    /** Backoff latency accumulated by the retries. */
    Tick backoff = 0;
};

/** Injects a FaultPlan's failures and keeps the fault ledger. */
class FaultInjector
{
  public:
    /** Bytes of a torn block that still reach media (the first half). */
    static constexpr unsigned kTornBytes = kBlockSize / 2;

    /**
     * @p stats may point at an externally-registered FaultStats (the
     * System's, registered under the "fault" group); nullptr falls back
     * to an internal instance so standalone injectors keep working.
     */
    explicit FaultInjector(const FaultPlan &plan,
                           FaultStats *stats = nullptr)
        : _plan(plan), _rng(plan.fault_seed ^ 0xfa017ull),
          _budget_j(plan.battery_j), _stats(stats ? stats : &_own_stats)
    {
    }

    const FaultPlan &plan() const { return _plan; }

    /**
     * Crash-drain energy budget (J); negative means a correctly sized
     * battery. Starts as the plan's battery_j. It is only consulted at
     * crash time, so a power-trace round may replace it with the charge
     * stored at the outage any time before crashNow() without
     * disturbing the armed media-fault stream or ledger.
     */
    double budgetJ() const { return _budget_j; }
    void setBudgetJ(double j) { _budget_j = j; }

    /**
     * Perform one media write of @p data to @p block through @p media,
     * sampling the plan's failure probability per attempt. On terminal
     * failure only the first kTornBytes land (a torn block); the block
     * and its intended content are recorded in the fault ledger. A
     * successful write clears any stale ledger entry for the block.
     */
    MediaWriteOutcome performMediaWrite(MediaBackend &media, Addr block,
                                        const BlockData &data);

    /** --- Attempt-level media API (event-driven WPQ retirement) ------- */

    /** Sample one media write attempt; true if it fails. */
    bool
    sampleMediaAttemptFails()
    {
        return _plan.media_fail_p > 0.0 && _rng.chance(_plan.media_fail_p);
    }

    /** A failed attempt will be retried (latency charged by the caller). */
    void noteRetry() { ++_stats->media_retries; }

    /** Terminal failure: commit the torn half-block and ledger the rest. */
    void commitTorn(MediaBackend &media, Addr block,
                    const BlockData &intended);

    /** A clean full-block write landed: supersede any old damage. */
    void noteCleanWrite(Addr block) { _damaged.erase(block); }

    /** A crash-time block was sacrificed to an exhausted battery. */
    void
    noteSacrificed(Addr block, const BlockData &intended)
    {
        _damaged[block] = intended;
        ++_stats->sacrificed_blocks;
    }

    /** A crash-time sub-block store-buffer write was sacrificed. */
    void noteSacrificedBytes(MediaBackend &media, Addr addr,
                             const void *src, unsigned size);

    /**
     * A crash-time sub-block store-buffer write reached media: a damaged
     * block's intended content must carry these bytes too, or the
     * ledger repair would roll them back.
     */
    void noteDrainedBytes(Addr addr, const void *src, unsigned size);

    /** --- Endurance retirements --------------------------------------- */

    /**
     * One physical media frame retired at the endurance limit, filed by
     * an FTL backend (see FtlMedia::freeOrRetire). Retirements are
     * *graceful* — the data migrated before the frame left service — so
     * they live in their own ledger, not in damagedBlocks(): the
     * recovery oracle must not treat them as unexplained damage.
     */
    struct RetiredFrame
    {
        Addr logical;        ///< last logical block the frame held
        std::uint64_t frame; ///< physical frame id
        std::uint64_t wear;  ///< programs endured at retirement
    };

    /** File one endurance retirement into the ledger. */
    void
    noteRetiredFrame(Addr logical, std::uint64_t frame, std::uint64_t wear)
    {
        _retired.push_back({logical, frame, wear});
        ++_stats->retired_frames;
    }

    /** Endurance retirements in filing order. */
    const std::vector<RetiredFrame> &retiredFrames() const
    {
        return _retired;
    }

    /** --- Fault ledger ------------------------------------------------ */

    /**
     * Blocks the injected faults damaged (torn or sacrificed), with the
     * content an un-faulted run would have persisted. Ordered by address
     * so oracle walks are deterministic.
     */
    const std::map<Addr, BlockData> &damagedBlocks() const
    {
        return _damaged;
    }

    /**
     * Intended content of @p block if it is ledgered as damaged, else
     * nullptr. The controller forwards this on powered reads: a torn
     * block's write data still lingers in controller buffers while power
     * is on, so a runtime tear costs retry latency but never feeds torn
     * bytes back into execution — the tear surfaces only in the
     * post-crash image. (Without this, corruption read back mid-run
     * propagates into derived values the ledger cannot explain, and the
     * recovery oracle misclassifies injected damage as a bug.)
     */
    const BlockData *
    intendedContent(Addr block) const
    {
        auto it = _damaged.find(block);
        return it == _damaged.end() ? nullptr : &it->second;
    }

    /** Write every damaged block's intended content into @p store. */
    void repairImage(BackingStore &store) const;

    std::uint64_t tornBlocks() const { return _stats->torn_blocks.value(); }
    std::uint64_t
    mediaRetries() const
    {
        return _stats->media_retries.value();
    }
    std::uint64_t
    sacrificedBlocks() const
    {
        return _stats->sacrificed_blocks.value();
    }

  private:
    FaultPlan _plan;
    Rng _rng;
    double _budget_j;

    /** block -> content an un-faulted run would have persisted. */
    std::map<Addr, BlockData> _damaged;

    /** Endurance retirements (graceful; separate from _damaged). */
    std::vector<RetiredFrame> _retired;

    FaultStats _own_stats; ///< fallback when no external stats are given
    FaultStats *_stats;
};

} // namespace bbb

#endif // BBB_FAULT_FAULT_INJECTOR_HH
