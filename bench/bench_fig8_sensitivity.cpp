/**
 * @file
 * Figure 8 reproduction: sensitivity of BBB to the bbPB size (1..1024
 * entries). Reports, normalized to the 1-entry configuration and averaged
 * (geomean) over the Table IV workloads:
 *
 *   (a) persisting-store rejections due to a full bbPB,
 *   (b) execution time,
 *   (c) bbPB drains to NVMM.
 *
 * Paper result: rejections collapse to ~zero by 16-32 entries; execution
 * time stops improving at 32 entries; drains keep shrinking until ~64
 * entries. 32 entries is the paper's chosen sweet spot.
 */

#include <cstdio>
#include <map>
#include <vector>

#include "bench_util.hh"

using namespace bbb;

int
main(int argc, char **argv)
{
    bool fast = bbbench::fastMode(argc, argv);
    unsigned jobs = bbbench::jobsArg(argc, argv);
    std::string json = bbbench::jsonPathArg(argc, argv);
    // Smaller structures than Fig. 7: this sweep is about bbPB pressure,
    // and 11 sizes x 7 workloads must simulate in minutes.
    WorkloadParams params = bbbench::shapedParams(fast, 2000, 20000);

    BenchReport rep("fig8_sensitivity");
    rep.setConfig("fast", fast);
    rep.setConfig("ops_per_thread", params.ops_per_thread);
    rep.setConfig("initial_elements", params.initial_elements);
    rep.setConfig("array_elements", params.array_elements);

    const std::vector<unsigned> sizes = {1, 2, 4, 8, 16, 32,
                                         64, 128, 256, 512, 1024};
    auto workloads = bbbench::paperWorkloads();

    // One grid of every (size, workload) point; the size-1 row doubles as
    // the normalization reference.
    std::vector<ExperimentSpec> specs;
    for (unsigned s : sizes) {
        for (const auto &name : workloads) {
            specs.push_back(
                {benchConfig(PersistMode::BbbMemSide, s), name, params});
        }
    }
    std::vector<ExperimentResult> results =
        bbbench::runGrid(specs, jobs);
    bbbench::reportExperiments(rep, results, /*with_entries=*/true);

    // result[size] = {rejections, exec, drains} geomean inputs
    std::map<unsigned, std::vector<double>> rej, exec, drains;

    std::map<std::string, ExperimentResult> base; // 1-entry reference
    for (std::size_t w = 0; w < workloads.size(); ++w)
        base[workloads[w]] = results[w];

    for (std::size_t si = 0; si < sizes.size(); ++si) {
        unsigned s = sizes[si];
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            const std::string &name = workloads[w];
            const ExperimentResult &r = results[si * workloads.size() + w];
            const ExperimentResult &b = base[name];
            // +1 smoothing keeps ratios defined when counts reach zero.
            rej[s].push_back(double(r.bbpb_rejections + 1) /
                             double(b.bbpb_rejections + 1));
            exec[s].push_back(double(r.exec_ticks) / double(b.exec_ticks));
            std::uint64_t rd = r.bbpb_drains + r.bbpb_forced_drains;
            std::uint64_t bd = b.bbpb_drains + b.bbpb_forced_drains;
            drains[s].push_back(double(rd + 1) / double(bd + 1));
        }
    }

    bbbench::banner("Figure 8: bbPB size sensitivity "
                    "(geomean over workloads, normalized to 1 entry)");
    std::printf("%8s %18s %18s %18s\n", "entries", "(a) rejections (x)",
                "(b) exec time (x)", "(c) drains (x)");
    for (unsigned s : sizes) {
        std::printf("%8u %18.4f %18.4f %18.4f\n", s,
                    bbbench::geomean(rej[s]), bbbench::geomean(exec[s]),
                    bbbench::geomean(drains[s]));
        std::string suffix = ".bbpb" + std::to_string(s);
        rep.measured().setReal("rejections_x" + suffix,
                               bbbench::geomean(rej[s]));
        rep.measured().setReal("exec_time_x" + suffix,
                               bbbench::geomean(exec[s]));
        rep.measured().setReal("drains_x" + suffix,
                               bbbench::geomean(drains[s]));
    }
    std::printf("\nPaper: rejections ~0 by 16-32 entries; execution time "
                "flat after 32; drains flat after 64.\n");
    rep.emitIfRequested(json);
    return 0;
}
