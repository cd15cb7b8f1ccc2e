/**
 * @file
 * Helpers shared by the paper benches (bench_paper) and the endurance
 * campaign (bench_endurance): the Table IV workload list, the bench
 * workload shape, and the table banner.
 */

#ifndef BBB_BENCH_BENCH_UTIL_HH
#define BBB_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <string>
#include <vector>

#include "api/cli.hh"
#include "api/experiment.hh"
#include "api/report.hh"

namespace bbbench
{

/** The Table IV workload list used by Fig. 7 / Fig. 8. */
inline std::vector<std::string>
paperWorkloads()
{
    return {"rtree",   "ctree",  "hashmap",   "mutateNC",
            "mutateC", "swapNC", "swapC"};
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

} // namespace bbbench

#endif // BBB_BENCH_BENCH_UTIL_HH
