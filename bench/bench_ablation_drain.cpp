/**
 * @file
 * Ablation bench for the Section III design choices DESIGN.md calls out:
 *
 *   1. Drain occupancy threshold (Section III-F): sweep 25%..100% of a
 *      32-entry bbPB. The paper picks 75%: late enough to coalesce, early
 *      enough to keep free entries for bursts.
 *   2. LLC writeback-skip (Section III-E): with the optimisation, dirty
 *      persistent LLC victims are dropped because the bbPB already
 *      persisted their value; without it they are written back again.
 *   3. Block-reuse ladder (our rtree-spatial extension workload): a
 *      fanout-8 spatial index has geometric block-reuse distances, the
 *      adversarial case for a small coalescing window; it bounds how far
 *      bbPB-32 can be pushed from eADR on write traffic.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace bbb;

namespace
{

constexpr double kThresholds[] = {0.25, 0.50, 0.75, 0.90, 1.00};
constexpr const char *kSkipWorkloads[] = {"hashmap", "ctree", "mutateC"};
constexpr unsigned kLadderSizes[] = {8, 32, 128, 512, 1024};

/** A memory-side backend variant that never skips LLC writebacks is not a
 *  separate class: the skip decision only fires for persistent blocks, so
 *  we emulate "no skip" by comparing against the skipped_writebacks count
 *  the hierarchy reports. */
void
thresholdSweep(const bbb::ExperimentResult *results, BenchReport &rep)
{
    std::printf("\n-- drain threshold sweep (32-entry bbPB, hashmap) --\n");
    std::printf("%10s %14s %14s %14s %14s\n", "threshold", "exec (us)",
                "nvmm writes", "rejections", "coalesces");
    for (std::size_t i = 0; i < std::size(kThresholds); ++i) {
        const ExperimentResult &r = results[i];
        std::printf("%9.0f%% %14.1f %14llu %14llu %14llu\n",
                    kThresholds[i] * 100, ticksToNs(r.exec_ticks) / 1000.0,
                    (unsigned long long)r.nvmm_writes,
                    (unsigned long long)r.bbpb_rejections,
                    (unsigned long long)r.bbpb_coalesces);
        std::string key = "threshold.pct" +
                          std::to_string(
                              static_cast<int>(kThresholds[i] * 100));
        rep.measured().setReal(key + ".exec_us",
                               ticksToNs(r.exec_ticks) / 1000.0);
        rep.measured().setCount(key + ".nvmm_writes", r.nvmm_writes);
        rep.measured().setCount(key + ".rejections", r.bbpb_rejections);
    }
}

void
writebackSkip(const bbb::ExperimentResult *results, BenchReport &rep)
{
    std::printf("\n-- LLC writeback-skip optimisation (Section III-E) --\n");
    std::printf("%-10s %16s %20s %22s\n", "workload", "nvmm writes",
                "skipped writebacks", "writes without skip");
    for (std::size_t i = 0; i < std::size(kSkipWorkloads); ++i) {
        const ExperimentResult &r = results[i];
        std::printf("%-10s %16llu %20llu %22llu\n", kSkipWorkloads[i],
                    (unsigned long long)r.nvmm_writes,
                    (unsigned long long)r.skipped_writebacks,
                    (unsigned long long)(r.nvmm_writes +
                                         r.skipped_writebacks));
        std::string key = std::string("writeback_skip.") +
                          kSkipWorkloads[i];
        rep.measured().setCount(key + ".nvmm_writes", r.nvmm_writes);
        rep.measured().setCount(key + ".skipped_writebacks",
                                r.skipped_writebacks);
    }
}

void
reuseLadder(const bbb::ExperimentResult *results, BenchReport &rep)
{
    std::printf("\n-- rtree-spatial reuse ladder: bbPB size vs writes "
                "(normalized to eADR) --\n");
    const ExperimentResult &eadr = results[0];
    std::printf("%10s %16s %14s\n", "entries", "writes (x eADR)",
                "exec (x eADR)");
    for (std::size_t i = 0; i < std::size(kLadderSizes); ++i) {
        const ExperimentResult &r = results[1 + i];
        std::printf("%10u %16.3f %14.3f\n", kLadderSizes[i],
                    double(r.nvmm_writes) / eadr.nvmm_writes,
                    double(r.exec_ticks) / eadr.exec_ticks);
        std::string key =
            "reuse_ladder.bbpb" + std::to_string(kLadderSizes[i]);
        rep.measured().setReal(key + ".nvmm_writes_x",
                               double(r.nvmm_writes) / eadr.nvmm_writes);
        rep.measured().setReal(key + ".exec_time_x",
                               double(r.exec_ticks) / eadr.exec_ticks);
    }
    std::printf("(interior-node rectangles reuse at geometric distances; "
                "a window smaller than the reuse\n distance re-drains "
                "them — the adversarial case for small persist buffers)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bool fast = bbbench::fastMode(argc, argv);
    unsigned jobs = bbbench::jobsArg(argc, argv);
    std::string json = bbbench::jsonPathArg(argc, argv);
    WorkloadParams params = bbbench::shapedParams(fast, 2000, 50000);
    WorkloadParams spatial = bbbench::shapedParams(fast, 1000, 20000);

    BenchReport rep("ablation_drain");
    rep.setConfig("fast", fast);
    rep.setConfig("ops_per_thread", std::uint64_t{params.ops_per_thread});
    rep.setConfig("spatial_ops_per_thread",
                  std::uint64_t{spatial.ops_per_thread});

    // All three ablation sections share one grid submission.
    std::vector<ExperimentSpec> specs;
    for (double thr : kThresholds) {
        SystemConfig cfg = benchConfig(PersistMode::BbbMemSide, 32);
        cfg.bbpb.drain_threshold = thr;
        specs.push_back({cfg, "hashmap", params});
    }
    for (const char *name : kSkipWorkloads) {
        specs.push_back(
            {benchConfig(PersistMode::BbbMemSide, 32), name, params});
    }
    specs.push_back(
        {benchConfig(PersistMode::Eadr), "rtree-spatial", spatial});
    for (unsigned s : kLadderSizes) {
        specs.push_back({benchConfig(PersistMode::BbbMemSide, s),
                         "rtree-spatial", spatial});
    }
    std::vector<ExperimentResult> results =
        bbbench::runGrid(specs, jobs);

    bbbench::banner("Ablations: drain policy, writeback skip, reuse ladder");
    const ExperimentResult *cursor = results.data();
    thresholdSweep(cursor, rep);
    cursor += std::size(kThresholds);
    writebackSkip(cursor, rep);
    cursor += std::size(kSkipWorkloads);
    reuseLadder(cursor, rep);

    // Grid points repeat workload/mode/entries (the threshold sweep is five
    // hashmap/bbb-mem/bbpb32 runs), so label experiments by section+index.
    for (std::size_t i = 0; i < std::size(kThresholds); ++i) {
        rep.addExperiment("threshold/pct" +
                              std::to_string(static_cast<int>(
                                  kThresholds[i] * 100)),
                          results[i].metrics);
    }
    std::size_t base = std::size(kThresholds);
    for (std::size_t i = 0; i < std::size(kSkipWorkloads); ++i) {
        rep.addExperiment(std::string("writeback_skip/") + kSkipWorkloads[i],
                          results[base + i].metrics);
    }
    base += std::size(kSkipWorkloads);
    rep.addExperiment("reuse_ladder/eadr", results[base].metrics);
    for (std::size_t i = 0; i < std::size(kLadderSizes); ++i) {
        rep.addExperiment("reuse_ladder/bbpb" +
                              std::to_string(kLadderSizes[i]),
                          results[base + 1 + i].metrics);
    }
    rep.emitIfRequested(json);
    return 0;
}
