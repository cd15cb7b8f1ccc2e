/**
 * @file
 * Example: a guided tour of the persistency trade-off space.
 *
 * Runs one workload across every persistency scheme the library models
 * (unsafe ADR, PMEM strict, eADR, BBB memory-side at two sizes, BBB
 * processor-side) and prints execution time, NVMM writes, bbPB behaviour,
 * and the crash-drain cost — the axes of the paper's Tables I and VII.
 *
 * Usage: persistency_modes [WORKLOAD [OPS_PER_THREAD]] [--jobs N]
 * `--jobs` sets the experiment-pool width (0, the default, = hardware
 * concurrency). Bad usage exits 2 (src/api/cli.hh).
 */

#include <cstdio>
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
};

} // namespace

int
main(int argc, char **argv)
{
    std::string workload = "hashmap";
    WorkloadParams params = benchParams();
    unsigned jobs = 0;
    int positionals = 0;
    cli::Args args(argc, argv,
                   "usage: persistency_modes [WORKLOAD [OPS_PER_THREAD]] "
                   "[--jobs N]");
    while (args.next()) {
        if (args.is("--jobs"))
            jobs = args.jobsValue();
        else if (!args.positional() || positionals == 2)
            args.unknown();
        else if (positionals++ == 0)
            workload = args.checkNames({args.value()}, workloadNameError)
                           .front();
        else
            params.ops_per_thread = args.unsignedValue();
    }

    const ModePoint points[] = {
        {"adr-unsafe (no persistency)", PersistMode::AdrUnsafe, 32},
        {"pmem-strict (clwb+sfence)", PersistMode::PmemStrict, 32},
        {"pmem-annotated (epoch-ish)", PersistMode::AdrPmem, 32},
        {"eadr (whole hierarchy)", PersistMode::Eadr, 32},
        {"bbb mem-side, 32 entries", PersistMode::BbbMemSide, 32},
        {"bbb mem-side, 1024 entries", PersistMode::BbbMemSide, 1024},
        {"bbb proc-side, 32 entries", PersistMode::BbbProcSide, 32},
    };

    std::printf("workload: %s, %llu ops/thread on 8 cores\n\n",
                workload.c_str(),
                (unsigned long long)params.ops_per_thread);
    std::printf("%-30s %14s %12s %11s %11s %11s\n", "scheme", "exec(us)",
                "nvmm_writes", "rejections", "coalesces", "stalls(us)");

    // The whole mode tour is one independent grid on a --jobs wide pool.
    std::vector<ExperimentSpec> specs;
    for (const ModePoint &pt : points)
        specs.push_back({benchConfig(pt.mode, pt.bbpb_entries), workload,
                         params});
    std::vector<ExperimentResult> results = runExperiments(specs, jobs);

    double eadr_time = 0;
    for (std::size_t i = 0; i < std::size(points); ++i) {
        const ModePoint &pt = points[i];
        const MetricSnapshot &m = results[i].metrics;
        double us = ticksToNs(m.count("system.exec_ticks")) / 1000.0;
        if (pt.mode == PersistMode::Eadr)
            eadr_time = us;
        std::printf(
            "%-30s %14.1f %12llu %11llu %11llu %11.1f\n", pt.label, us,
            (unsigned long long)m.count("system.nvmm_writes_effective"),
            (unsigned long long)coreSum(m, "sb", "persist_rejections"),
            (unsigned long long)bbpbCount(m, "coalesces"),
            coreSum(m, "core", "stall_ticks") / 1000.0 / 1000.0);
    }

    if (eadr_time > 0)
        std::printf("\n(eADR is the no-persistency-cost reference: "
                    "%0.1f us)\n", eadr_time);
    return 0;
}
