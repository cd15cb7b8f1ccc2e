/**
 * @file
 * Integration tests for the structured-metrics layer: System metric
 * snapshots, ExperimentResult::metrics, and the BenchReport document
 * (schema sections, golden bytes, jobs-width determinism).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/experiment.hh"
#include "api/report.hh"
#include "api/system.hh"

using namespace bbb;

namespace
{

/** A tiny machine so every test runs in milliseconds. */
SystemConfig
tinyCfg(PersistMode mode = PersistMode::BbbMemSide)
{
    SystemConfig cfg;
    cfg.num_cores = 2;
    cfg.l1d.size_bytes = 4_KiB;
    cfg.llc.size_bytes = 16_KiB;
    cfg.dram.size_bytes = 64_MiB;
    cfg.nvmm.size_bytes = 64_MiB;
    cfg.mode = mode;
    cfg.bbpb.entries = 8;
    return cfg;
}

WorkloadParams
tinyParams()
{
    WorkloadParams params;
    params.ops_per_thread = 300;
    params.initial_elements = 50;
    params.array_elements = 1 << 12;
    return params;
}

} // namespace

TEST(SystemMetrics, SnapshotCoversRegistryAndDerivedValues)
{
    System sys(tinyCfg());
    Addr base = sys.heap().alloc(0, 64 * kBlockSize, 64);
    sys.onThread(0, [&](ThreadContext &tc) {
        for (unsigned i = 0; i < 64; ++i)
            tc.store64(base + i * kBlockSize, i);
    });
    sys.run();

    MetricSnapshot m = sys.snapshotMetrics();
    EXPECT_FALSE(m.empty());
    // Registry-backed values.
    EXPECT_GT(m.count("hierarchy.stores"), 0u);
    EXPECT_GT(m.count("bbpb.drains"), 0u);
    EXPECT_NE(m.find("crash.crashes"), nullptr);
    EXPECT_NE(m.find("media.torn_programs"), nullptr);
    // Derived values appended by System::snapshotMetrics.
    EXPECT_EQ(m.count("system.exec_ticks"),
              static_cast<std::uint64_t>(sys.executionTime()));
    EXPECT_EQ(m.count("system.nvmm_writes_effective"),
              sys.effectiveNvmmWrites());
    EXPECT_NE(m.find("hierarchy.l1_dirty_blocks"), nullptr);
    // Registry stats match the snapshot exactly.
    EXPECT_EQ(m.count("hierarchy.stores"),
              sys.stats().lookup("hierarchy", "stores"));
}

TEST(SystemMetrics, HistogramBucketsOptIn)
{
    System sys(tinyCfg());
    Addr base = sys.heap().alloc(0, 64 * kBlockSize, 64);
    sys.onThread(0, [&](ThreadContext &tc) {
        for (unsigned i = 0; i < 64; ++i)
            tc.store64(base + i * kBlockSize, i);
    });
    sys.run();

    MetricSnapshot flat = sys.snapshotMetrics(false);
    MetricSnapshot full = sys.snapshotMetrics(true);
    EXPECT_GT(full.size(), flat.size());
    bool has_bucket = false;
    for (const auto &kv : full.values())
        if (kv.first.find(".bucket") != std::string::npos)
            has_bucket = true;
    EXPECT_TRUE(has_bucket);
}

TEST(ExperimentMetrics, ResultCarriesMetricTree)
{
    ExperimentResult r =
        runExperiment(tinyCfg(), "hashmap", tinyParams());
    EXPECT_FALSE(r.metrics.empty());
    // The loose table fields are views into the tree.
    EXPECT_EQ(r.metrics.count("system.exec_ticks"),
              static_cast<std::uint64_t>(r.exec_ticks));
    EXPECT_EQ(r.metrics.count("hierarchy.stores"), r.stores);
    EXPECT_EQ(r.metrics.count("hierarchy.persisting_stores"),
              r.persisting_stores);
}

TEST(ExperimentMetrics, SerialAndParallelMetricsBitIdentical)
{
    // Every metric, including the sim.ops / sim.events_fired counts,
    // must be bit-identical at any jobs width.
    std::vector<ExperimentSpec> specs;
    for (const char *w : {"hashmap", "linkedlist", "mutateC", "hashmap"})
        specs.push_back({tinyCfg(), w, tinyParams()});
    specs[3].cfg.mode = PersistMode::Eadr;

    std::vector<ExperimentResult> serial = runExperiments(specs, 1);
    std::vector<ExperimentResult> wide = runExperiments(specs, 4);
    ASSERT_EQ(serial.size(), wide.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i].metrics.toJson(), wide[i].metrics.toJson())
            << "spec " << i;
    // ops counts loads + stores, so it bounds the store count.
    const MetricSnapshot &m = serial[0].metrics;
    EXPECT_GT(m.count("sim.events_fired"), 0u);
    EXPECT_GE(m.count("sim.ops"), m.count("hierarchy.stores"));
    EXPECT_GT(m.count("hierarchy.stores"), 0u);
}

TEST(BenchReport, DocumentSectionsInFixedOrder)
{
    BenchReport rep("demo");
    rep.setConfig("fast", true);
    rep.setConfig("ops", std::uint64_t{42});
    rep.paperRef("speedup.avg", 1.01);
    rep.measured().setReal("speedup.avg", 1.02);
    MetricSnapshot em;
    em.setCount("bbpb.drains", 3);
    rep.addExperiment("hashmap/bbb-mem", em);

    std::string doc = rep.toJson();
    EXPECT_LT(doc.find("\"schema\": \"bbb-bench-report\""),
              doc.find("\"schema_version\": 2"));
    EXPECT_LT(doc.find("\"schema_version\""), doc.find("\"bench\": \"demo\""));
    EXPECT_LT(doc.find("\"bench\""), doc.find("\"config\""));
    EXPECT_LT(doc.find("\"config\""), doc.find("\"paper\""));
    EXPECT_LT(doc.find("\"paper\""), doc.find("\"measured\""));
    EXPECT_LT(doc.find("\"measured\""), doc.find("\"experiments\""));
    EXPECT_LT(doc.find("\"experiments\""),
              doc.find("\"label\": \"hashmap/bbb-mem\""));
    EXPECT_EQ(doc.find("\"host\""), std::string::npos);
    EXPECT_EQ(doc.back(), '\n');
}

TEST(BenchReport, StringLiteralConfigPrintsAsText)
{
    // A string literal must not decay to the bool overload and print as
    // "true" (campaign reports once wrote "media": "true").
    BenchReport rep("literal");
    rep.setConfig("media", "direct");
    rep.setConfig("harness", "google-benchmark");
    rep.setConfig("fast", true);
    std::string doc = rep.toJson();
    EXPECT_NE(doc.find("\"media\": \"direct\""), std::string::npos);
    EXPECT_NE(doc.find("\"harness\": \"google-benchmark\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"fast\": \"true\""), std::string::npos);
    EXPECT_EQ(doc.find("\"media\": \"true\""), std::string::npos);
}

TEST(BenchReport, GoldenBytes)
{
    BenchReport rep("golden");
    rep.setConfig("ops", std::uint64_t{7});
    rep.paperRef("x", 1.5);
    rep.measured().setCount("y", 2);
    const char *expected = "{\n"
                           "  \"schema\": \"bbb-bench-report\",\n"
                           "  \"schema_version\": 2,\n"
                           "  \"bench\": \"golden\",\n"
                           "  \"config\": {\n"
                           "    \"ops\": \"7\"\n"
                           "  },\n"
                           "  \"paper\": {\n"
                           "    \"x\": 1.5\n"
                           "  },\n"
                           "  \"measured\": {\n"
                           "    \"y\": 2\n"
                           "  },\n"
                           "  \"experiments\": []\n"
                           "}\n";
    EXPECT_EQ(rep.toJson(), expected);
}
