/**
 * @file
 * Drain-policy ablation (Section III-F future work, implemented): FCFS
 * (the paper's policy) versus least-recently-written-first (a recency
 * predictor for future writes) versus random victim selection, across
 * workloads with different block-reuse behaviour.
 *
 * Expectation: for write-once workloads the policies tie; when write-hot
 * blocks exist (linkedlist's head pointer, rtree-spatial's path
 * rectangles), LRW keeps them buffered and trims NVMM writes, while
 * random forfeits part of FCFS's age signal.
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
    WorkloadParams params = bbbench::shapedParams(fast, 2000, 20000);

    BenchReport rep("drain_policy");
    rep.setConfig("fast", fast);
    rep.setConfig("bbpb_entries", std::uint64_t{32});
    rep.setConfig("ops_per_thread", std::uint64_t{params.ops_per_thread});

    const DrainPolicy policies[] = {DrainPolicy::Fcfs, DrainPolicy::Lrw,
                                    DrainPolicy::Random};
    const char *workloads[] = {"hashmap", "linkedlist", "rtree-spatial",
                               "mutateC"};

    std::vector<ExperimentSpec> specs;
    for (const char *name : workloads) {
        for (DrainPolicy policy : policies) {
            SystemConfig cfg = benchConfig(PersistMode::BbbMemSide, 32);
            cfg.bbpb.drain_policy = policy;
            WorkloadParams p = params;
            if (std::string(name) == "rtree-spatial")
                p.ops_per_thread /= 2; // the heaviest workload
            specs.push_back({cfg, name, p});
        }
    }
    std::vector<ExperimentResult> results =
        bbbench::runGrid(specs, jobs);

    bbbench::banner("Ablation: bbPB drain policy (32 entries; NVMM writes "
                    "and exec time normalized to FCFS)");
    std::printf("%-14s | %9s %9s %9s | %9s %9s %9s\n", "workload",
                "fcfs_w", "lrw_w", "rand_w", "fcfs_t", "lrw_t", "rand_t");

    const char *policy_names[] = {"fcfs", "lrw", "random"};
    for (std::size_t w = 0; w < 4; ++w) {
        double writes[3], times[3];
        for (std::size_t i = 0; i < 3; ++i) {
            const ExperimentResult &r = results[w * 3 + i];
            writes[i] = static_cast<double>(r.nvmm_writes);
            times[i] = static_cast<double>(r.exec_ticks);
            rep.addExperiment(std::string(workloads[w]) + "/" +
                                  policy_names[i],
                              r.metrics);
        }
        std::printf("%-14s | %9.3f %9.3f %9.3f | %9.3f %9.3f %9.3f\n",
                    workloads[w], 1.0, writes[1] / writes[0],
                    writes[2] / writes[0], 1.0, times[1] / times[0],
                    times[2] / times[0]);
        for (std::size_t i = 1; i < 3; ++i) {
            std::string key = std::string(workloads[w]) + "." +
                              policy_names[i];
            rep.measured().setReal(key + ".nvmm_writes_x",
                                   writes[i] / writes[0]);
            rep.measured().setReal(key + ".exec_time_x",
                                   times[i] / times[0]);
        }
    }
    std::printf("\nFCFS is the paper's shipped policy; LRW approximates "
                "its proposed prediction-based draining.\n");
    rep.emitIfRequested(json);
    return 0;
}
