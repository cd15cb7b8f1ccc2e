/**
 * @file
 * Experiment harness: run one workload under one configuration and
 * collect the metrics the paper's evaluation reports.
 *
 * This is the backbone of bench_paper, whose recipes (Fig. 7, Fig. 8,
 * the processor-side comparison, the PMEM-strict ablation, ...) share
 * one grid.
 */

#ifndef BBB_API_EXPERIMENT_HH
#define BBB_API_EXPERIMENT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "workloads/workload.hh"

namespace bbb
{

/** One simulated run: its metric tree and its recovery verdict. */
struct ExperimentResult
{
    /** The point's identity, for labels. */
    std::string workload;
    PersistMode mode{};
    unsigned bbpb_entries = 0;

    /**
     * The run's full metric tree (System::snapshotMetrics): every
     * registry stat plus the derived `system.*` values. Every figure of
     * the run is read from here, e.g. `system.exec_ticks`,
     * `system.nvmm_writes_effective` and `hierarchy.persisting_stores`;
     * bbpbCount() and coreSum() below read the rest.
     */
    MetricSnapshot metrics;

    /** Recovery check verdict of a crash_at_end run (else false). */
    bool recovery_consistent = false;
};

/**
 * `bbpb.@p stat` of a run's metric tree, or `bbpb_proc.@p stat` when the
 * machine's bbPB sits on the processor side; 0 for a machine without one.
 */
std::uint64_t bbpbCount(const MetricSnapshot &m, const std::string &stat);

/**
 * `@p group<c>.@p stat` of a run's metric tree summed over every core c,
 * e.g. coreSum(m, "sb", "persist_rejections") or
 * coreSum(m, "core", "stall_ticks").
 */
std::uint64_t coreSum(const MetricSnapshot &m, const std::string &group,
                      const std::string &stat);

/**
 * Build, run, and harvest one experiment.
 *
 * @param cfg the machine (mode, bbPB size, cache geometry, ...).
 * @param workload a Table IV workload name.
 * @param params workload shape knobs.
 * @param crash_at_end fail the power once the run has finished and
 *        judge the image left behind (recovery_consistent). The metric
 *        tree is taken after the crash drain, so its writes count in
 *        `media.*` and a broken drain prefix in `crash.prefix_violations`.
 */
ExperimentResult runExperiment(const SystemConfig &cfg,
                               const std::string &workload,
                               const WorkloadParams &params,
                               bool crash_at_end = false);

/** One point of an experiment grid: runExperiment's arguments. */
struct ExperimentSpec
{
    SystemConfig cfg;
    std::string workload;
    WorkloadParams params;
    bool crash_at_end = false;

    bool operator==(const ExperimentSpec &) const = default;
};

/**
 * For each of @p specs, the index of the first spec equal to it (its own
 * index when it is the first of its kind).
 */
std::vector<std::size_t>
firstEqualSpecs(const std::vector<ExperimentSpec> &specs);

/** Resolve a jobs request: 0 means hardware concurrency (min 1). */
unsigned resolveJobs(unsigned jobs);

/**
 * The BBB_JOB_TIMEOUT_S wall-clock budget in seconds; 0 (or unset)
 * disables the watchdogs that read it (the job pool below and the
 * litmus checker). Anything but a whole number of seconds is fatal.
 */
long jobTimeoutSeconds();

/**
 * Run @p count independent jobs — fn(0) .. fn(count-1) — on an
 * atomic-ticket worker pool (the engine underneath runExperiments and
 * runLifetimeCampaign). Each index is claimed by exactly one worker; @p fn
 * must make job i independent of which worker runs it (own System, own
 * RNG, writes only to slot i), which is what makes the results
 * bit-identical at any @p jobs width. @p jobs == 1 degenerates to a
 * plain serial loop on the calling thread; the first exception thrown by
 * any job is rethrown after the pool drains.
 *
 * A wall-clock watchdog guards every job (serial path included): when
 * the BBB_JOB_TIMEOUT_S environment variable is set to a positive
 * number of seconds, any single job still running past that budget
 * fail()s the whole run, printing @p describe(i) — campaigns pass the
 * job's one-line repro here — so a hung campaign dies with the exact
 * command to replay the offender instead of wedging CI. Unset or 0
 * disables the watchdog.
 */
void runIndexedJobs(std::size_t count,
                    const std::function<void(std::size_t)> &fn,
                    unsigned jobs = 0,
                    const std::function<std::string(std::size_t)> &describe =
                        {});

/**
 * Run a grid of independent experiment points on a worker thread pool.
 *
 * Results come back in submission order, and every point is simulated by
 * its own System with its own event queue and RNG stream, so the result
 * vector is bit-identical to running the specs serially — regardless of
 * @p jobs or scheduling. A result is a pure function of its spec, so a
 * spec submitted more than once is simulated once (firstEqualSpecs) and
 * copied into every repeat. @p jobs == 0 uses hardware concurrency;
 * @p jobs == 1 degenerates to a plain serial loop on the calling thread.
 */
std::vector<ExperimentResult>
runExperiments(const std::vector<ExperimentSpec> &specs, unsigned jobs = 0);

/** The paper's default machine (Table III). */
SystemConfig paperConfig(PersistMode mode, unsigned bbpb_entries = 32);

/**
 * Scaled-down machine used by the bench binaries: the Table III ratios
 * with smaller caches/structures so each point simulates in seconds. The
 * relative behaviour (who wins, crossovers) matches the full
 * configuration; see EXPERIMENTS.md.
 */
SystemConfig benchConfig(PersistMode mode, unsigned bbpb_entries = 32);

/** Workload shape used by the bench binaries. */
WorkloadParams benchParams();

} // namespace bbb

#endif // BBB_API_EXPERIMENT_HH
