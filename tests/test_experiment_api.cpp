/**
 * @file
 * Tests for the public API layer: the experiment harness, the System
 * facade, and the standard configurations.
 */

#include <gtest/gtest.h>

#include "api/experiment.hh"
#include "api/system.hh"

using namespace bbb;

TEST(Configs, PaperConfigMatchesTableIII)
{
    SystemConfig cfg = paperConfig(PersistMode::BbbMemSide);
    EXPECT_EQ(cfg.num_cores, 8u);
    EXPECT_EQ(cfg.clock_mhz, 2000u);
    EXPECT_EQ(cfg.l1d.size_bytes, 128_KiB);
    EXPECT_EQ(cfg.l1d.assoc, 8u);
    EXPECT_EQ(cfg.l1d.latency_cycles, 2u);
    EXPECT_EQ(cfg.llc.size_bytes, 1_MiB);
    EXPECT_EQ(cfg.llc.assoc, 8u);
    EXPECT_EQ(cfg.llc.latency_cycles, 11u);
    EXPECT_EQ(cfg.nvmm.read_latency, nsToTicks(150));
    EXPECT_EQ(cfg.nvmm.write_latency, nsToTicks(500));
    EXPECT_EQ(cfg.dram.read_latency, nsToTicks(55));
    EXPECT_EQ(cfg.bbpb.entries, 32u);
    EXPECT_DOUBLE_EQ(cfg.bbpb.drain_threshold, 0.75);
}

TEST(Configs, PaperConfigHonorsOverrides)
{
    SystemConfig cfg = paperConfig(PersistMode::Eadr, 1024);
    EXPECT_EQ(cfg.mode, PersistMode::Eadr);
    EXPECT_EQ(cfg.bbpb.entries, 1024u);
}

TEST(Experiment, ProducesPopulatedMetrics)
{
    SystemConfig cfg = benchConfig(PersistMode::BbbMemSide, 32);
    cfg.num_cores = 2;
    WorkloadParams p;
    p.ops_per_thread = 100;
    p.initial_elements = 100;
    ExperimentResult r = runExperiment(cfg, "hashmap", p);

    EXPECT_EQ(r.workload, "hashmap");
    EXPECT_EQ(r.mode, PersistMode::BbbMemSide);
    EXPECT_EQ(r.bbpb_entries, 32u);
    const MetricSnapshot &m = r.metrics;
    EXPECT_GT(m.count("system.exec_ticks"), 0u);
    EXPECT_GT(m.count("system.nvmm_writes_effective"), 0u);
    EXPECT_GT(m.count("hierarchy.persisting_stores"), 0u);
    EXPECT_LE(m.count("hierarchy.persisting_stores"),
              m.count("hierarchy.stores"));
    EXPECT_GT(bbpbCount(m, "coalesces"), 0u);
    EXPECT_EQ(bbpbCount(m, "coalesces"), m.count("bbpb.coalesces"));
    // The per-core sums cover both cores and nothing else.
    EXPECT_GT(coreSum(m, "core", "ops"), 0u);
    EXPECT_EQ(coreSum(m, "core", "ops"),
              m.count("core0.ops") + m.count("core1.ops"));
    EXPECT_EQ(coreSum(m, "sb", "pushes"),
              m.count("sb0.pushes") + m.count("sb1.pushes"));
    EXPECT_EQ(coreSum(m, "core", "no_such_stat"), 0u);
}

TEST(Experiment, CrashAtEndJudgesRecoveryAfterTheRun)
{
    WorkloadParams p;
    p.ops_per_thread = 100;
    p.initial_elements = 100;
    for (MediaKind media : {MediaKind::Direct, MediaKind::Ftl}) {
        SCOPED_TRACE(mediaKindName(media));
        SystemConfig cfg = benchConfig(PersistMode::BbbMemSide, 32);
        cfg.num_cores = 2;
        cfg.media.kind = media;

        ExperimentResult plain = runExperiment(cfg, "hashmap", p);
        ExperimentResult crashed = runExperiment(cfg, "hashmap", p, true);
        // The crash comes after the run, so the run itself is untouched.
        EXPECT_EQ(crashed.metrics.count("system.exec_ticks"),
                  plain.metrics.count("system.exec_ticks"));
        EXPECT_EQ(plain.metrics.count("crash.crashes"), 0u);
        EXPECT_EQ(crashed.metrics.count("crash.crashes"), 1u);
        EXPECT_EQ(crashed.metrics.count("crash.prefix_violations"), 0u);
        EXPECT_TRUE(crashed.recovery_consistent);

        // A crash-checked point is not its plain twin, so the grid must
        // simulate both.
        std::vector<ExperimentResult> grid = runExperiments(
            {{cfg, "hashmap", p}, {cfg, "hashmap", p, true}}, 1);
        ASSERT_EQ(grid.size(), 2u);
        EXPECT_NE(grid[0].metrics.toJson(), grid[1].metrics.toJson());
        EXPECT_EQ(grid[1].metrics.toJson(), crashed.metrics.toJson());
    }
}

TEST(Experiment, ProcSideReportsFromProcGroup)
{
    SystemConfig cfg = benchConfig(PersistMode::BbbProcSide, 32);
    cfg.num_cores = 2;
    WorkloadParams p;
    p.ops_per_thread = 100;
    p.initial_elements = 50;
    ExperimentResult r = runExperiment(cfg, "linkedlist", p);
    EXPECT_GT(bbpbCount(r.metrics, "drains") +
                  bbpbCount(r.metrics, "forced_drains"),
              0u);
    EXPECT_EQ(bbpbCount(r.metrics, "drains"),
              r.metrics.count("bbpb_proc.drains"));
    EXPECT_EQ(r.metrics.find("bbpb.drains"), nullptr);
}

TEST(Experiment, EadrHasNoBbpbActivity)
{
    SystemConfig cfg = benchConfig(PersistMode::Eadr);
    cfg.num_cores = 2;
    WorkloadParams p;
    p.ops_per_thread = 100;
    p.initial_elements = 50;
    ExperimentResult r = runExperiment(cfg, "hashmap", p);
    EXPECT_EQ(bbpbCount(r.metrics, "drains"), 0u);
    EXPECT_EQ(coreSum(r.metrics, "sb", "persist_rejections"), 0u);
    EXPECT_EQ(bbpbCount(r.metrics, "coalesces"), 0u);
}

TEST(System, EffectiveWritesCountsResidue)
{
    // A store that never leaves the cache still appears in the effective
    // count for eADR; for BBB it appears via the bbPB occupancy.
    for (PersistMode mode : {PersistMode::Eadr, PersistMode::BbbMemSide}) {
        SystemConfig cfg;
        cfg.num_cores = 1;
        cfg.dram.size_bytes = 64_MiB;
        cfg.nvmm.size_bytes = 64_MiB;
        cfg.mode = mode;
        cfg.bbpb.drain_threshold = 1.0;
        System sys(cfg);
        Addr a = sys.heap().alloc(0, 8);
        sys.onThread(0, [&](ThreadContext &tc) { tc.store64(a, 1); });
        sys.run();
        EXPECT_EQ(sys.nvmmWrites(), 0u) << persistModeName(mode);
        EXPECT_EQ(sys.effectiveNvmmWrites(), 1u) << persistModeName(mode);
    }
}

TEST(System, Peek64SeesCachedValue)
{
    SystemConfig cfg;
    cfg.num_cores = 1;
    cfg.dram.size_bytes = 64_MiB;
    cfg.nvmm.size_bytes = 64_MiB;
    System sys(cfg);
    Addr a = sys.heap().alloc(0, 8);
    sys.onThread(0, [&](ThreadContext &tc) { tc.store64(a, 0xbeef); });
    sys.run();
    EXPECT_EQ(sys.peek64(a), 0xbeefu);
    // Not necessarily in media yet; peek is architectural.
}

TEST(System, HeapMagicIsStamped)
{
    SystemConfig cfg;
    cfg.dram.size_bytes = 64_MiB;
    cfg.nvmm.size_bytes = 64_MiB;
    System sys(cfg);
    EXPECT_EQ(sys.image().read64(sys.heap().magicAddr()),
              PersistentHeap::kMagic);
}

TEST(System, RunWithoutThreadsTerminates)
{
    SystemConfig cfg;
    cfg.dram.size_bytes = 64_MiB;
    cfg.nvmm.size_bytes = 64_MiB;
    System sys(cfg);
    EXPECT_EQ(sys.run(), 0u);
}

TEST(System, ModeSelectsBackendKind)
{
    SystemConfig base;
    base.dram.size_bytes = 64_MiB;
    base.nvmm.size_bytes = 64_MiB;

    {
        SystemConfig cfg = base;
        cfg.mode = PersistMode::BbbMemSide;
        System sys(cfg);
        EXPECT_NE(dynamic_cast<MemSideBbpb *>(sys.bbpb()), nullptr);
    }
    {
        SystemConfig cfg = base;
        cfg.mode = PersistMode::BbbProcSide;
        System sys(cfg);
        EXPECT_NE(dynamic_cast<ProcSideBbpb *>(sys.bbpb()), nullptr);
    }
    {
        SystemConfig cfg = base;
        cfg.mode = PersistMode::Eadr;
        System sys(cfg);
        EXPECT_EQ(sys.bbpb(), nullptr);
    }
}

TEST(SystemDeath, TooManyCoresRejected)
{
    SystemConfig cfg;
    cfg.num_cores = 65;
    EXPECT_DEATH({ System sys(cfg); }, "64");
}

TEST(SystemDeath, ZeroEntryStoreBufferRejected)
{
    SystemConfig cfg;
    cfg.store_buffer.entries = 0;
    EXPECT_DEATH({ System sys(cfg); }, "store buffer");
}

TEST(SystemDeath, ZeroEntryBbpbRejected)
{
    for (PersistMode mode :
         {PersistMode::BbbMemSide, PersistMode::BbbProcSide}) {
        SystemConfig cfg;
        cfg.mode = mode;
        cfg.bbpb.entries = 0;
        EXPECT_DEATH({ System sys(cfg); }, "bbPB");
    }
}
