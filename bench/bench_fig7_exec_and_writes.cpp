/**
 * @file
 * Figure 7 reproduction: execution time (a) and number of NVMM writes (b)
 * for BBB with 32-entry bbPBs, BBB with 1024-entry bbPBs, and eADR,
 * normalized to eADR, across the Table IV workloads.
 *
 * Paper result: BBB-32 is ~1% slower than eADR on average (2.8% worst
 * case) and adds 4.9% NVMM writes on average (range 1-7.9%); BBB-1024 is
 * nearly identical to eADR (<1% extra writes).
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"

using namespace bbb;

int
main(int argc, char **argv)
{
    bool fast = bbbench::fastMode(argc, argv);
    unsigned jobs = bbbench::jobsArg(argc, argv);
    std::string json = bbbench::jsonPathArg(argc, argv);
    WorkloadParams params = bbbench::shapedParams(fast, 4000, 100000);

    BenchReport rep("fig7_exec_and_writes");
    rep.setConfig("fast", fast);
    rep.setConfig("ops_per_thread", params.ops_per_thread);
    rep.setConfig("initial_elements", params.initial_elements);
    rep.setConfig("array_elements", params.array_elements);
    rep.paperRef("exec_time_x.bbb32.avg", 1.01);
    rep.paperRef("exec_time_x.bbb32.worst", 1.028);
    rep.paperRef("nvmm_writes_x.bbb32.avg", 1.049);
    rep.paperRef("nvmm_writes_x.bbb32.worst", 1.079);
    rep.paperRef("nvmm_writes_x.bbb1024.max", 1.01);

    // The full 3-modes x 7-workloads grid goes through the pool at once.
    auto workloads = bbbench::paperWorkloads();
    std::vector<ExperimentSpec> specs;
    for (const auto &name : workloads) {
        specs.push_back({benchConfig(PersistMode::Eadr), name, params});
        specs.push_back(
            {benchConfig(PersistMode::BbbMemSide, 32), name, params});
        specs.push_back(
            {benchConfig(PersistMode::BbbMemSide, 1024), name, params});
    }
    std::vector<ExperimentResult> results =
        bbbench::runGrid(specs, jobs);
    bbbench::reportExperiments(rep, results, /*with_entries=*/true);

    bbbench::banner("Figure 7: execution time and NVMM writes, "
                    "BBB-32 / BBB-1024 / eADR (normalized to eADR)");
    std::printf("%-10s | %-29s | %-29s\n", "", "(a) execution time (x)",
                "(b) NVMM writes (x)");
    std::printf("%-10s | %9s %9s %9s | %9s %9s %9s\n", "workload",
                "BBB-32", "BBB-1024", "eADR", "BBB-32", "BBB-1024", "eADR");

    std::vector<double> time32, time1024, writes32, writes1024;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const std::string &name = workloads[w];
        const ExperimentResult &eadr = results[w * 3];
        const ExperimentResult &bbb32 = results[w * 3 + 1];
        const ExperimentResult &bbb1024 = results[w * 3 + 2];

        double t32 = double(bbb32.exec_ticks) / eadr.exec_ticks;
        double t1024 = double(bbb1024.exec_ticks) / eadr.exec_ticks;
        double w32 = double(bbb32.nvmm_writes) / eadr.nvmm_writes;
        double w1024 = double(bbb1024.nvmm_writes) / eadr.nvmm_writes;
        time32.push_back(t32);
        time1024.push_back(t1024);
        writes32.push_back(w32);
        writes1024.push_back(w1024);

        rep.measured().setReal("exec_time_x.bbb32." + name, t32);
        rep.measured().setReal("exec_time_x.bbb1024." + name, t1024);
        rep.measured().setReal("nvmm_writes_x.bbb32." + name, w32);
        rep.measured().setReal("nvmm_writes_x.bbb1024." + name, w1024);

        std::printf("%-10s | %9.3f %9.3f %9.3f | %9.3f %9.3f %9.3f\n",
                    name.c_str(), t32, t1024, 1.0, w32, w1024, 1.0);
    }

    rep.measured().setReal("exec_time_x.bbb32.geomean",
                           bbbench::geomean(time32));
    rep.measured().setReal("exec_time_x.bbb1024.geomean",
                           bbbench::geomean(time1024));
    rep.measured().setReal("nvmm_writes_x.bbb32.geomean",
                           bbbench::geomean(writes32));
    rep.measured().setReal("nvmm_writes_x.bbb1024.geomean",
                           bbbench::geomean(writes1024));

    std::printf("%-10s | %9.3f %9.3f %9.3f | %9.3f %9.3f %9.3f\n",
                "geomean", bbbench::geomean(time32),
                bbbench::geomean(time1024), 1.0,
                bbbench::geomean(writes32), bbbench::geomean(writes1024),
                1.0);
    std::printf("\nPaper: BBB-32 avg ~1.01x time (worst 1.028x), "
                "avg 1.049x writes (range 1.01-1.079x);\n"
                "       BBB-1024 ~1.00x time, <1.01x writes.\n");
    rep.emitIfRequested(json);
    return 0;
}
