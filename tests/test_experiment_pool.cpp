/**
 * @file
 * Tests for the parallel experiment runner: submission-ordered results,
 * bit-identical determinism between serial and pooled execution, the
 * jobs=1 serial degenerate path, and one simulation per distinct spec.
 */

#include <gtest/gtest.h>

#include <vector>

#include "api/experiment.hh"

using namespace bbb;

namespace
{

WorkloadParams
tinyParams()
{
    WorkloadParams p;
    p.ops_per_thread = 60;
    p.initial_elements = 60;
    p.array_elements = 1ull << 12;
    return p;
}

SystemConfig
tinyConfig(PersistMode mode, unsigned entries = 32)
{
    SystemConfig cfg = benchConfig(mode, entries);
    cfg.num_cores = 2;
    return cfg;
}

/** Every ExperimentResult field, compared exactly. */
void
expectIdentical(const ExperimentResult &a, const ExperimentResult &b,
                const char *what)
{
    EXPECT_EQ(a.workload, b.workload) << what;
    EXPECT_EQ(a.mode, b.mode) << what;
    EXPECT_EQ(a.bbpb_entries, b.bbpb_entries) << what;
    EXPECT_EQ(a.exec_ticks, b.exec_ticks) << what;
    EXPECT_EQ(a.nvmm_writes, b.nvmm_writes) << what;
    EXPECT_EQ(a.bbpb_rejections, b.bbpb_rejections) << what;
    EXPECT_EQ(a.bbpb_drains, b.bbpb_drains) << what;
    EXPECT_EQ(a.bbpb_forced_drains, b.bbpb_forced_drains) << what;
    EXPECT_EQ(a.bbpb_coalesces, b.bbpb_coalesces) << what;
    EXPECT_EQ(a.bbpb_migrations, b.bbpb_migrations) << what;
    EXPECT_EQ(a.skipped_writebacks, b.skipped_writebacks) << what;
    EXPECT_EQ(a.stores, b.stores) << what;
    EXPECT_EQ(a.persisting_stores, b.persisting_stores) << what;
    EXPECT_EQ(a.stall_ticks, b.stall_ticks) << what;
    EXPECT_EQ(a.toCsv(), b.toCsv()) << what;
}

std::vector<ExperimentSpec>
sampleGrid()
{
    WorkloadParams p = tinyParams();
    return {
        {tinyConfig(PersistMode::BbbMemSide, 32), "hashmap", p},
        {tinyConfig(PersistMode::Eadr), "hashmap", p},
        {tinyConfig(PersistMode::BbbMemSide, 8), "linkedlist", p},
        {tinyConfig(PersistMode::BbbProcSide, 32), "mutateC", p},
        {tinyConfig(PersistMode::AdrPmem), "ctree", p},
        {tinyConfig(PersistMode::BbbMemSide, 32), "hashmap", p},
    };
}

} // namespace

TEST(ExperimentPool, ResolveJobsZeroMeansHardware)
{
    EXPECT_GE(resolveJobs(0), 1u);
    EXPECT_EQ(resolveJobs(3), 3u);
}

TEST(ExperimentPool, EmptyGridIsEmpty)
{
    EXPECT_TRUE(runExperiments({}, 4).empty());
    EXPECT_TRUE(runExperiments({}, 0).empty());
}

TEST(ExperimentPool, SerialRunsOfSamePointAreIdentical)
{
    // The premise of determinism: one (config, workload, seed) point run
    // twice serially produces bit-identical metrics.
    WorkloadParams p = tinyParams();
    SystemConfig cfg = tinyConfig(PersistMode::BbbMemSide, 32);
    ExperimentResult a = runExperiment(cfg, "hashmap", p);
    ExperimentResult b = runExperiment(cfg, "hashmap", p);
    expectIdentical(a, b, "serial rerun");
}

TEST(ExperimentPool, PoolMatchesSerialBitIdentically)
{
    std::vector<ExperimentSpec> specs = sampleGrid();

    std::vector<ExperimentResult> serial;
    for (const ExperimentSpec &s : specs)
        serial.push_back(runExperiment(s.cfg, s.workload, s.params));

    std::vector<ExperimentResult> pooled = runExperiments(specs, 4);
    ASSERT_EQ(pooled.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        expectIdentical(serial[i], pooled[i], specs[i].workload.c_str());

    // Duplicate submissions land in their own slots, also identical.
    expectIdentical(pooled[0], pooled[5], "duplicate point");
}

TEST(ExperimentPool, JobsOneDegeneratesToSerial)
{
    std::vector<ExperimentSpec> specs = sampleGrid();
    specs.resize(3);

    std::vector<ExperimentResult> one = runExperiments(specs, 1);
    ASSERT_EQ(one.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        ExperimentResult direct =
            runExperiment(specs[i].cfg, specs[i].workload, specs[i].params);
        expectIdentical(direct, one[i], specs[i].workload.c_str());
    }
}

TEST(ExperimentPool, MoreJobsThanPointsIsFine)
{
    std::vector<ExperimentSpec> specs = sampleGrid();
    specs.resize(2);
    std::vector<ExperimentResult> r = runExperiments(specs, 16);
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r[0].workload, "hashmap");
    EXPECT_EQ(r[1].workload, "hashmap");
    EXPECT_GT(r[0].exec_ticks, 0u);
}

TEST(ExperimentPool, ConfigEqualityCoversEveryMember)
{
    EXPECT_TRUE(SystemConfig{} == SystemConfig{});

    SystemConfig media;
    media.media.kind = MediaKind::Ftl;
    EXPECT_FALSE(media == SystemConfig{});

    SystemConfig policy;
    policy.bbpb.drain_policy = DrainPolicy::Lrw;
    EXPECT_FALSE(policy == SystemConfig{});

    SystemConfig strict;
    strict.pmem_auto_strict = true;
    EXPECT_FALSE(strict == SystemConfig{});
}

TEST(ExperimentPool, EqualSpecsSimulateOnceAndShareTheResult)
{
    WorkloadParams p = tinyParams();
    ExperimentSpec a{tinyConfig(PersistMode::BbbMemSide, 2), "hashmap", p};
    ExperimentSpec b{tinyConfig(PersistMode::Eadr), "linkedlist", p};
    ExperimentSpec a_prime = a;
    a_prime.cfg.bbpb.drain_threshold = 0.25;
    std::vector<ExperimentSpec> grid = {a, b, a, a_prime};
    EXPECT_EQ(firstEqualSpecs(grid),
              (std::vector<std::size_t>{0, 1, 0, 3}));

    std::string alone = runExperiments({a}, 1)[0].metrics.toJson();
    for (unsigned jobs : {1u, 4u}) {
        std::vector<ExperimentResult> r = runExperiments(grid, jobs);
        ASSERT_EQ(r.size(), grid.size());
        EXPECT_EQ(r[0].metrics.toJson(), alone) << "jobs " << jobs;
        EXPECT_EQ(r[2].metrics.toJson(), alone) << "jobs " << jobs;
        expectIdentical(r[0], r[2], "repeated spec");
        EXPECT_NE(r[3].exec_ticks, r[0].exec_ticks) << "jobs " << jobs;
    }
}
