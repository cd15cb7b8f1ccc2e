/**
 * @file
 * Integration tests for the structured-metrics layer: System metric
 * snapshots, ExperimentResult::metrics, and the BenchReport document
 * (schema sections, canonical mode, jobs-width determinism).
 */

#include <gtest/gtest.h>

#include <cstdlib>
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

/** RAII guard for BBB_REPORT_CANONICAL so tests cannot leak it. */
struct CanonicalGuard
{
    explicit CanonicalGuard(bool on)
    {
        if (on)
            setenv("BBB_REPORT_CANONICAL", "1", 1);
        else
            unsetenv("BBB_REPORT_CANONICAL");
    }

    ~CanonicalGuard() { unsetenv("BBB_REPORT_CANONICAL"); }
};

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
    EXPECT_NE(m.find("fault.torn_blocks"), nullptr);
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
    // Canonical mode zeroes the host-rate leaves of the `sim` group
    // (sim.host_seconds and friends vary with host scheduling); every
    // other metric — including the sim.ops / sim.events_fired counts —
    // must be bit-identical at any jobs width.
    CanonicalGuard guard(true);
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
}

TEST(ExperimentMetrics, SimGroupCountsDeterministicRatesHostBound)
{
    // Non-canonical runs may disagree on the host-rate leaves but never
    // on the simulated counts.
    CanonicalGuard guard(false);
    std::vector<ExperimentSpec> specs = {
        {tinyCfg(), "hashmap", tinyParams()}};
    ExperimentResult a = runExperiments(specs, 1).at(0);
    ExperimentResult b = runExperiments(specs, 1).at(0);

    EXPECT_GT(a.metrics.count("sim.ops"), 0u);
    EXPECT_GT(a.metrics.count("sim.events_fired"), 0u);
    EXPECT_EQ(a.metrics.count("sim.ops"), b.metrics.count("sim.ops"));
    EXPECT_EQ(a.metrics.count("sim.events_fired"),
              b.metrics.count("sim.events_fired"));
    // ops counts loads + stores, so it bounds the store count.
    EXPECT_GE(a.metrics.count("sim.ops"),
              a.metrics.count("hierarchy.stores"));
    // The run took nonzero host time, so the rate leaves are live.
    EXPECT_GT(a.metrics.real("sim.host_seconds"), 0.0);
    EXPECT_GT(a.metrics.real("sim.events_per_sec"), 0.0);
    EXPECT_GT(a.metrics.real("sim.host_ns_per_op"), 0.0);
}

TEST(ExperimentMetrics, CanonicalModeZeroesSimRateLeaves)
{
    CanonicalGuard guard(true);
    std::vector<ExperimentSpec> specs = {
        {tinyCfg(), "hashmap", tinyParams()}};
    ExperimentResult r = runExperiments(specs, 1).at(0);
    EXPECT_GT(r.metrics.count("sim.ops"), 0u);
    EXPECT_GT(r.metrics.count("sim.events_fired"), 0u);
    EXPECT_EQ(r.metrics.real("sim.host_seconds"), 0.0);
    EXPECT_EQ(r.metrics.real("sim.events_per_sec"), 0.0);
    EXPECT_EQ(r.metrics.real("sim.host_ns_per_op"), 0.0);
}

TEST(BenchReport, DocumentSectionsInFixedOrder)
{
    CanonicalGuard guard(false);
    BenchReport rep("demo");
    rep.setConfig("fast", true);
    rep.setConfig("ops", std::uint64_t{42});
    rep.paperRef("speedup.avg", 1.01);
    rep.measured().setReal("speedup.avg", 1.02);
    MetricSnapshot em;
    em.setCount("bbpb.drains", 3);
    rep.addExperiment("hashmap/bbb-mem", em);
    rep.noteRun(0.5, 8);

    std::string doc = rep.toJson();
    EXPECT_LT(doc.find("\"schema\": \"bbb-bench-report\""),
              doc.find("\"schema_version\": 1"));
    EXPECT_LT(doc.find("\"schema_version\""), doc.find("\"bench\": \"demo\""));
    EXPECT_LT(doc.find("\"bench\""), doc.find("\"config\""));
    EXPECT_LT(doc.find("\"config\""), doc.find("\"paper\""));
    EXPECT_LT(doc.find("\"paper\""), doc.find("\"measured\""));
    EXPECT_LT(doc.find("\"measured\""), doc.find("\"experiments\""));
    EXPECT_LT(doc.find("\"experiments\""), doc.find("\"host\""));
    EXPECT_NE(doc.find("\"label\": \"hashmap/bbb-mem\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"jobs\": 8"), std::string::npos);
    EXPECT_NE(doc.find("\"wall_clock_s\": 0.5"), std::string::npos);
    EXPECT_EQ(doc.back(), '\n');
}

TEST(BenchReport, StringLiteralConfigPrintsAsText)
{
    // A string literal must not decay to the bool overload and print as
    // "true" (campaign reports once wrote "media": "true").
    CanonicalGuard guard(false);
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
    CanonicalGuard guard(false);
    BenchReport rep("golden");
    rep.setConfig("ops", std::uint64_t{7});
    rep.paperRef("x", 1.5);
    rep.measured().setCount("y", 2);
    const char *expected = "{\n"
                           "  \"schema\": \"bbb-bench-report\",\n"
                           "  \"schema_version\": 1,\n"
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
                           "  \"experiments\": [],\n"
                           "  \"host\": {\n"
                           "    \"jobs\": 0,\n"
                           "    \"wall_clock_s\": 0,\n"
                           "    \"sim_ops\": 0,\n"
                           "    \"events_fired\": 0,\n"
                           "    \"events_per_sec\": 0,\n"
                           "    \"ns_per_op\": 0\n"
                           "  }\n"
                           "}\n";
    EXPECT_EQ(rep.toJson(), expected);
}

TEST(BenchReport, CanonicalModeZeroesHostSection)
{
    BenchReport rep("canon");
    rep.noteRun(1.25, 16);
    rep.noteSim(1000, 5000);
    std::string normal, canonical;
    {
        CanonicalGuard guard(false);
        normal = rep.toJson();
    }
    {
        CanonicalGuard guard(true);
        EXPECT_TRUE(reportCanonicalMode());
        canonical = rep.toJson();
    }
    EXPECT_NE(normal.find("\"jobs\": 16"), std::string::npos);
    EXPECT_NE(normal.find("\"sim_ops\": 1000"), std::string::npos);
    EXPECT_NE(normal.find("\"events_fired\": 5000"), std::string::npos);
    EXPECT_NE(normal.find("\"events_per_sec\": 4000"), std::string::npos);
    EXPECT_NE(canonical.find("\"jobs\": 0"), std::string::npos);
    EXPECT_NE(canonical.find("\"wall_clock_s\": 0"), std::string::npos);
    EXPECT_NE(canonical.find("\"sim_ops\": 0"), std::string::npos);
    EXPECT_NE(canonical.find("\"events_per_sec\": 0"), std::string::npos);
    EXPECT_EQ(canonical.find("1.25"), std::string::npos);
    // Everything but the host section is shared.
    EXPECT_EQ(normal.substr(0, normal.find("\"host\"")),
              canonical.substr(0, canonical.find("\"host\"")));
}
