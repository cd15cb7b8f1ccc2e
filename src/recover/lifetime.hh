/**
 * @file
 * Crash–recover–resume lifetimes: the crash-fault campaign engine, with
 * a durable-linearizability oracle.
 *
 * A *lifetime* is K rounds of run → crash → recover → resume over one
 * persistent image. Round 0 installs the workload on a fresh machine;
 * every later round reboots a fresh System seeded with the image the
 * previous round's RecoveryManager repaired, restores the heap
 * frontiers, and resumes execution until the next seeded crash. A point
 * crash — one seeded crash tick under one FaultPlan — is the one-round
 * lifetime (`rounds = 1`).
 *
 * After every crash the round is judged twice:
 *
 *   1. **Healed-image oracle** — clone the post-crash image and write
 *      back the fault ledger (restoring exactly the blocks the injected
 *      faults damaged; an empty ledger leaves the post-crash image as
 *      the healed one, read in place), and demand (a) the crash drain
 *      kept its oldest-first prefix, (b) the workload's consistency
 *      walk passes, and
 *      (c) for key-logging workloads, durable linearizability:
 *        - every key recovered after a previous round is still present
 *          (an acknowledged-and-survived key can never be lost later);
 *        - the keys new this round are exactly a program-order prefix
 *          of what each thread issued (Px86 persist order == program
 *          order: no phantom keys, no gaps in the persisted prefix).
 *      If the ledger-healed image is consistent, the damage is fully
 *      explained by the injected faults; if not, no fault explains it.
 *      Media-tearing plans narrow (b) and (c). A resumed round reads
 *      back blocks the previous round tore, so a stale pointer can
 *      fork a live structure and propagate damage into cleanly-written
 *      blocks the final ledger cannot describe: from round 1 on those
 *      plans claim only the drain prefix (a) and graceful recovery
 *      below. Round 0 still runs (b): the controller forwards ledgered
 *      intent on powered reads, so it never reads a torn half-block.
 *      The key oracle (c) stays off for those plans in every round.
 *   2. **Recovery** — run the workload's recover() on the *raw* (still
 *      damaged) image. It must never abort: outcomes are clean,
 *      degraded-repaired (damage unlinked, survivors kept), or a
 *      structured unrecoverable result. Repairing an image the fault
 *      ledger says was undamaged is itself an oracle violation — the
 *      fault-free machine must not need repairs.
 *
 * The survivor set is rebaselined from the recovered image after every
 * round, so deliberately degraded rounds shrink the guarantee instead
 * of failing it — graceful degradation, never a crash loop.
 *
 * A walk only reads, so a round walks each distinct set of bytes once:
 * one walk of the healed image serves (b) and (c); the manager reuses
 * the recovery walk's count when recovery wrote nothing; and when the
 * ledger was empty and recovery wrote nothing, the raw image is the
 * healed image, so its keys rebaseline the survivor set.
 *
 * AdrUnsafe is excluded from the default mode sweep: without flushes
 * the writeback order is arbitrary, so no prefix property holds (that
 * contrast is the paper's point; see examples/crash_recovery.cc).
 *
 * Campaigns run on the runIndexedJobs pool; each sample owns its
 * Systems and RNG streams, so summaries are bit-identical at any jobs
 * width, and every sample replays from a one-line repro.
 */

#ifndef BBB_RECOVER_LIFETIME_HH
#define BBB_RECOVER_LIFETIME_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/crash_engine.hh"
#include "fault/fault_plan.hh"
#include "persist/recovery.hh"
#include "power/power_scheduler.hh"
#include "recover/recovery_manager.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "workloads/workload.hh"

namespace bbb
{

/** Taxonomy for one whole lifetime (K rounds). */
enum class LifetimeOutcome
{
    /** Every round recovered clean and every oracle check passed. */
    Clean,
    /**
     * At least one round recovered by discarding ledgered damage, and
     * the shrunken survivor set stayed durable ever after.
     */
    DegradedRepaired,
    /**
     * A durability guarantee broke: a surviving key vanished, the
     * persisted keys were not a program-order prefix, the drain broke
     * its oldest-first prefix, recovery aborted, or an undamaged image
     * needed repairs.
     */
    OracleViolation,
};

/** Printable outcome name. */
const char *lifetimeOutcomeName(LifetimeOutcome o);

/**
 * Where a lifetime's outages come from. With no trace, each round
 * crashes at a seeded tick; with one, each round runs until the trace's
 * next outage and drains on the charge the battery then holds.
 */
struct PowerEnv
{
    /**
     * Power trace driving outage timing (empty = seeded crash ticks);
     * see PowerTrace for the preset and `seg:` forms.
     */
    std::string trace;
    /** Usable battery capacity (J); must be positive. */
    double capacity_j = 50e-6;
    /** Graceful-degradation policy at the low-charge warning. */
    DegradePolicy policy = DegradePolicy::None;

    bool active() const { return !trace.empty(); }
};

/** One fully-specified lifetime (a runnable K-round sample). */
struct LifetimeSample
{
    SystemConfig cfg;
    std::string workload;
    WorkloadParams params;
    FaultPlan plan;
    /** Name of the plan family this sample came from (display only). */
    std::string plan_name;
    /** Outage timing: seeded crash ticks, or a power trace. */
    PowerEnv power_env;
    /** Seed of the per-round schedule stream (crash ticks, sub-seeds). */
    std::uint64_t seed = 1;
    /** Crash–recover–resume rounds in this lifetime. */
    unsigned rounds = 3;
    /**
     * Per-round crash tick sampling window. Ignored under a power
     * trace: outage timing then comes from the trace, and `rounds` is
     * only an upper bound (the trace decides how many windows fit).
     */
    Tick min_crash_tick = nsToTicks(2000);
    Tick max_crash_tick = nsToTicks(400000);

    /** Same replay line as LifetimeResult::reproLine (watchdog path). */
    std::string reproLine() const;
};

/** Everything one round of a lifetime produced. */
struct LifetimeRound
{
    Tick crash_tick = 0;
    CrashReport report;
    /** Blocks the fault ledger says this round damaged. */
    std::uint64_t damaged_blocks = 0;
    /** Media frames retired for wear during this round (media=ftl). */
    std::uint64_t retired_frames = 0;
    /** Consistency walk over the ledger-healed image. */
    RecoveryResult healed;
    /** Recovery of the raw image (ledgered damage => DegradedRepaired). */
    RecoveryStatus recovery = RecoveryStatus::Clean;
    std::uint64_t repairs = 0;
    std::uint64_t dropped = 0;
    /** Fingerprint of the recovered image carried into the next round. */
    std::uint64_t image_fingerprint = 0;
    /** All oracle checks passed for this round. */
    bool oracle_ok = true;
    /** First failed check, empty when oracle_ok. */
    std::string detail;

    /** --- Power-trace rounds only ----------------------------------- */

    /** This round's outage came from a power trace, not a seeded tick. */
    bool power_round = false;
    /** Charge stored at the outage (J) — the round's drain budget. */
    double charge_at_outage = -1.0;
    /** The battery emptied mid-brownout (zero-budget outage). */
    bool brownout_outage = false;
    /** The low-charge warning fired (degradation policy ran). */
    bool had_warning = false;
    /** Blocks the warning policy proactively drained. */
    std::uint64_t proactive_blocks = 0;
};

/** Everything one lifetime produced. */
struct LifetimeResult
{
    std::string workload;
    std::string plan_name;
    PersistMode mode{};
    std::uint64_t seed = 0;
    unsigned rounds = 0;
    FaultPlan plan;
    PowerEnv power_env;

    LifetimeOutcome outcome = LifetimeOutcome::Clean;
    /**
     * Per-round log; shorter than rounds iff a round violated — or, for
     * power-trace lifetimes, iff the trace ran out of windows.
     */
    std::vector<LifetimeRound> round_log;
    /** Fingerprint of the final recovered image. */
    std::uint64_t image_fingerprint = 0;

    /** Power-environment aggregates (power-trace lifetimes only). */
    bool powered = false;
    PowerStats power;

    /** First round that failed the oracle, or nullptr. */
    const LifetimeRound *firstViolation() const;

    /**
     * Minimized single-line repro: feed these flags back through
     * persistModeFromName / FaultPlan::parse / replayLifetimeSample to
     * re-run this exact lifetime (crash ticks re-derive from the seed).
     */
    std::string reproLine() const;
};

/** A lifetime campaign: the sweep space plus the sampling seed. */
struct LifetimeSpec
{
    /** Machine template; each round overrides its seeds. */
    SystemConfig base;
    /** Workloads to sweep. */
    std::vector<std::string> workloads;
    WorkloadParams params;
    /** Modes to sweep; empty means every safe mode (no AdrUnsafe). */
    std::vector<PersistMode> modes;
    /**
     * Fault-plan family; empty means faultPlanPresets() for a seeded
     * sweep and the single "none" plan for a power sweep.
     */
    std::vector<NamedFaultPlan> plans;
    /** Rounds per lifetime (1 = a point-crash sweep). */
    unsigned rounds = 3;
    /** Seeded lifetimes drawn per (workload, mode, plan) cell. */
    unsigned lifetimes = 2;
    /** Per-round crash tick sampling window. */
    Tick min_crash_tick = nsToTicks(2000);
    Tick max_crash_tick = nsToTicks(400000);
    /** Seed of the campaign's sampling stream. */
    std::uint64_t campaign_seed = 1;

    /**
     * Power-environment sweep: when `traces` is non-empty each plan
     * runs under every trace × battery_caps × policies environment,
     * every outage comes from the trace, and `rounds` caps the windows
     * taken per lifetime.
     */
    std::vector<std::string> traces;
    /** Usable battery capacities to sweep (J); empty means 50 uJ. */
    std::vector<double> battery_caps;
    /** Degradation policies to sweep; empty means just None. */
    std::vector<DegradePolicy> policies;

    /** The fault-plan family the sweep runs (see `plans`). */
    std::vector<NamedFaultPlan> planFamily() const;
};

/** Campaign results plus the outcome tally. */
struct LifetimeSummary
{
    std::vector<LifetimeResult> results;
    std::uint64_t clean = 0;
    std::uint64_t degraded = 0;
    std::uint64_t violations = 0;

    /**
     * Campaign-level aggregates as a metric tree (`lifetime.*`): the
     * taxonomy tally plus per-round recovery, damage and crash-drain
     * totals summed over every lifetime. Deterministic at any jobs
     * width.
     */
    MetricSnapshot metrics;

    /** First oracle violation, or nullptr if the campaign is bug-free. */
    const LifetimeResult *firstViolation() const;

    /** Every lifetime landed in exactly one taxonomy bucket. */
    bool
    allClassified() const
    {
        return clean + degraded + violations == results.size();
    }
};

/** The default mode sweep: every mode with a persist-order guarantee. */
std::vector<PersistMode> safePersistModes();

/**
 * Expand a spec into its deterministic sample list: for every workload x
 * mode x plan, `lifetimes` seeds drawn from one stream seeded by
 * campaign_seed. Pure function of the spec.
 */
std::vector<LifetimeSample> planLifetimeCampaign(const LifetimeSpec &spec);

/**
 * Run one lifetime: K rounds of run → crash → judge → recover → resume.
 * The repro replay path; a pure function of the sample.
 */
LifetimeResult runLifetimeSample(const LifetimeSample &sample);

/**
 * Run the whole campaign on the runIndexedJobs pool and tally the
 * taxonomy. Bit-identical at any @p jobs width.
 */
LifetimeSummary runLifetimeCampaign(const LifetimeSpec &spec,
                                    unsigned jobs = 0);

} // namespace bbb

#endif // BBB_RECOVER_LIFETIME_HH
