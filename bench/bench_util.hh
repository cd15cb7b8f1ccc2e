/**
 * @file
 * Shared helpers for the table/figure reproduction benches.
 *
 * Each bench binary regenerates one table or figure from the paper's
 * evaluation section, printing our measured/estimated value next to the
 * paper's published value where one exists. Pass `--fast` to any binary
 * to shrink the simulated runs (CI smoke mode).
 */

#ifndef BBB_BENCH_BENCH_UTIL_HH
#define BBB_BENCH_BENCH_UTIL_HH

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/cli.hh"
#include "api/experiment.hh"
#include "api/report.hh"

namespace bbbench
{

// Flag parsing is shared with the examples (api/cli.hh); the old names
// keep working for the bench binaries.
using bbb::cli::fastMode;
using bbb::cli::hasFlag;
using bbb::cli::jobsArg;
using bbb::cli::jsonPathArg;
using bbb::cli::splitList;
using bbb::cli::stringOpt;

/** The Table IV workload list used by Fig. 7 / Fig. 8. */
inline std::vector<std::string>
paperWorkloads()
{
    return {"rtree",   "ctree",  "hashmap",   "mutateNC",
            "mutateC", "swapNC", "swapC"};
}

/**
 * Submit a full bench grid to the experiment pool and print its
 * wall-clock, so CI logs show what the pool buys. Results are in
 * submission order and bit-identical to a serial run (see
 * runExperiments).
 */
inline std::vector<bbb::ExperimentResult>
runGrid(const std::vector<bbb::ExperimentSpec> &specs, unsigned jobs)
{
    std::vector<bbb::ExperimentResult> results;
    double secs = bbb::timedSeconds(
        [&] { results = bbb::runExperiments(specs, jobs); });
    unsigned effective = bbb::resolveJobs(jobs);
    if (effective > specs.size() && !specs.empty())
        effective = static_cast<unsigned>(specs.size());
    std::printf("[grid] %zu points on %u jobs: %.2f s wall\n",
                specs.size(), effective, secs);
    return results;
}

/** `workload/mode[/bbpbN]` experiment label for report documents. */
inline std::string
experimentLabel(const bbb::ExperimentResult &r, bool with_entries = false)
{
    std::string label = r.workload;
    label += '/';
    label += bbb::persistModeName(r.mode);
    if (with_entries) {
        label += "/bbpb";
        label += std::to_string(r.bbpb_entries);
    }
    return label;
}

/**
 * Append every grid result to @p rep as a labelled experiment entry.
 * Labels follow grid submission order; metrics are the runs' full
 * System::snapshotMetrics trees.
 */
inline void
reportExperiments(bbb::BenchReport &rep,
                  const std::vector<bbb::ExperimentResult> &results,
                  bool with_entries = false)
{
    for (const bbb::ExperimentResult &r : results)
        rep.addExperiment(experimentLabel(r, with_entries), r.metrics);
}

/** Bench workload shape, honoring --fast. */
inline bbb::WorkloadParams
shapedParams(bool fast, std::uint64_t ops, std::uint64_t initial)
{
    bbb::WorkloadParams p = bbb::benchParams();
    p.ops_per_thread = fast ? ops / 8 : ops;
    p.initial_elements = fast ? initial / 8 : initial;
    if (fast)
        p.array_elements = 1ull << 17;
    return p;
}

/** Print a separator + title in a consistent style. */
inline void
banner(const char *title)
{
    std::printf("\n================================================================"
                "===============\n%s\n"
                "================================================================"
                "===============\n",
                title);
}

/** Geometric mean of a vector of positive values. */
inline double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

} // namespace bbbench

#endif // BBB_BENCH_BENCH_UTIL_HH
