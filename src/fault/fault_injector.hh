/**
 * @file
 * FaultInjector: the runtime side of a FaultPlan.
 *
 * One injector is owned by a System. It decides and records; it never
 * reads or writes media. It acts in the two places the plan's faults
 * act:
 *
 *  - the NVMM controller's media writes (runtime and crash time): the
 *    controller asks it whether each write attempt fails; bounded
 *    retries back off exponentially and are latency-charged; a terminal
 *    failure tears the 64 B block, leaving only its first half in the
 *    image. The controller performs the write and reports the outcome;
 *  - the crash engine's flush-on-fail drain: every drained byte charges
 *    the Joule budget; when it runs out the remaining (younger) blocks
 *    are sacrificed, and an optional mid-drain re-crash shrinks the
 *    residual budget.
 *
 * The injector keeps the *fault ledger* recovery oracles need: the
 * intended content of every block the faults damaged (sacrificed at
 * crash time, or torn by media failures). Applying the ledger to a
 * post-crash image must yield a consistent structure — if it does not,
 * the damage is NOT explained by the injected faults and the run is a
 * genuine persistency bug (see recover/lifetime.hh). How many blocks
 * tore, retried or were sacrificed is counted once, where it happens:
 * media.torn_programs, nvmm.media_retry_writes and crash.* respectively.
 *
 * All randomness comes from one deterministic stream seeded by
 * FaultPlan::fault_seed, drawn only on the single simulation thread, so
 * every fault schedule is exactly reproducible from the plan token.
 */

#ifndef BBB_FAULT_FAULT_INJECTOR_HH
#define BBB_FAULT_FAULT_INJECTOR_HH

#include <cstdint>
#include <map>

#include "fault/fault_plan.hh"
#include "mem/backing_store.hh"
#include "mem/block_data.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace bbb
{

/** Injects a FaultPlan's failures and keeps the fault ledger. */
class FaultInjector
{
  public:
    /** Bytes of a torn block that still reach media (the first half). */
    static constexpr unsigned kTornBytes = kBlockSize / 2;

    explicit FaultInjector(const FaultPlan &plan)
        : _plan(plan), _rng(plan.fault_seed ^ 0xfa017ull),
          _budget_j(plan.battery_j)
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

    /** --- Media write attempts (decided here, written by MemCtrl) ---- */

    /** Sample one media write attempt; true if it fails. Draws nothing
     *  when the plan injects no media faults. */
    bool
    sampleMediaAttemptFails()
    {
        return _plan.media_fail_p > 0.0 && _rng.chance(_plan.media_fail_p);
    }

    /**
     * @p block was damaged: a media write tore it, or the crash drain
     * sacrificed it to an exhausted battery. Ledger the content an
     * un-faulted run would have persisted.
     */
    void
    noteDamaged(Addr block, const BlockData &intended)
    {
        _damaged[block] = intended;
    }

    /** A clean full-block write landed: supersede any old damage. */
    void noteCleanWrite(Addr block) { _damaged.erase(block); }

    /** --- Crash drain sub-block writes -------------------------------- */

    /**
     * A crash-time sub-block store-buffer write was sacrificed.
     * @p current is the block's content as the controller presents it
     * (the ledgered intent of an already damaged block).
     */
    void noteSacrificedBytes(Addr addr, const void *src, unsigned size,
                             const BlockData &current);

    /**
     * A crash-time sub-block store-buffer write reached media: a damaged
     * block's intended content must carry these bytes too, or the
     * ledger repair would roll them back.
     */
    void noteDrainedBytes(Addr addr, const void *src, unsigned size);

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

  private:
    FaultPlan _plan;
    Rng _rng;
    double _budget_j;

    /** block -> content an un-faulted run would have persisted. */
    std::map<Addr, BlockData> _damaged;
};

} // namespace bbb

#endif // BBB_FAULT_FAULT_INJECTOR_HH
