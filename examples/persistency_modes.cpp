/**
 * @file
 * Example: a guided tour of the persistency trade-off space.
 *
 * Runs one workload across every persistency scheme the library models
 * (unsafe ADR, PMEM strict, eADR, BBB memory-side at two sizes, BBB
 * processor-side) and prints execution time, NVMM writes, bbPB behaviour,
 * and the crash-drain cost — the axes of the paper's Tables I and VII.
 *
 * Usage: persistency_modes [workload] [ops_per_thread] [--jobs N]
 * `--jobs`/BBB_JOBS set the experiment-pool width (0 = hardware
 * concurrency).
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/cli.hh"
#include "api/experiment.hh"
#include "api/system.hh"

using namespace bbb;

namespace
{

struct ModePoint
{
    const char *label;
    PersistMode mode;
    unsigned bbpb_entries;
    bool auto_strict;
};

} // namespace

int
main(int argc, char **argv)
{
    std::string workload = "hashmap";
    if (argc > 1 && argv[1][0] != '-')
        workload = argv[1];
    WorkloadParams params = benchParams();
    if (argc > 2 && argv[2][0] != '-')
        params.ops_per_thread = std::strtoull(argv[2], nullptr, 10);

    const ModePoint points[] = {
        {"adr-unsafe (no persistency)", PersistMode::AdrUnsafe, 0, false},
        {"pmem-strict (clwb+sfence)", PersistMode::AdrPmem, 0, true},
        {"pmem-annotated (epoch-ish)", PersistMode::AdrPmem, 0, false},
        {"eadr (whole hierarchy)", PersistMode::Eadr, 0, false},
        {"bbb mem-side, 32 entries", PersistMode::BbbMemSide, 32, false},
        {"bbb mem-side, 1024 entries", PersistMode::BbbMemSide, 1024,
         false},
        {"bbb proc-side, 32 entries", PersistMode::BbbProcSide, 32, false},
    };

    std::printf("workload: %s, %llu ops/thread on 8 cores\n\n",
                workload.c_str(),
                (unsigned long long)params.ops_per_thread);
    std::printf("%-30s %14s %12s %11s %11s %11s\n", "scheme", "exec(us)",
                "nvmm_writes", "rejections", "coalesces", "stalls(us)");

    // The whole mode tour is one independent grid; --jobs or BBB_JOBS
    // picks the pool width (0 = hardware concurrency).
    unsigned jobs = bbb::cli::jobsArg(argc, argv);
    std::vector<ExperimentSpec> specs;
    for (const ModePoint &pt : points) {
        SystemConfig cfg = benchConfig(pt.mode, pt.bbpb_entries
                                                    ? pt.bbpb_entries
                                                    : 32);
        cfg.pmem_auto_strict = pt.auto_strict;
        specs.push_back({cfg, workload, params});
    }
    std::vector<ExperimentResult> results = runExperiments(specs, jobs);

    double eadr_time = 0;
    for (std::size_t i = 0; i < std::size(points); ++i) {
        const ModePoint &pt = points[i];
        const ExperimentResult &r = results[i];
        double us = ticksToNs(r.exec_ticks) / 1000.0;
        if (pt.mode == PersistMode::Eadr)
            eadr_time = us;
        std::printf("%-30s %14.1f %12llu %11llu %11llu %11.1f\n", pt.label,
                    us, (unsigned long long)r.nvmm_writes,
                    (unsigned long long)r.bbpb_rejections,
                    (unsigned long long)r.bbpb_coalesces,
                    r.stall_ticks / 1000.0 / 1000.0);
    }

    if (eadr_time > 0)
        std::printf("\n(eADR is the no-persistency-cost reference: "
                    "%0.1f us)\n", eadr_time);
    return 0;
}
