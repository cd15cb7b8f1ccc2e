/**
 * @file
 * The crash–recover–resume lifetime campaign (src/recover/lifetime.hh):
 *
 *  - planLifetimeCampaign is a pure function of the spec;
 *  - K = 3 rounds across every safe persistency mode and representative
 *    fault plans produce zero durable-linearizability oracle violations;
 *  - every lifetime whose fault ledger recorded damage comes back
 *    degraded-repaired — recovery never aborts on ledgered damage;
 *  - campaign summaries are bit-identical at any --jobs width.
 */

#include <gtest/gtest.h>

#include "recover/lifetime.hh"

using namespace bbb;

namespace
{

LifetimeSpec
smallSpec()
{
    LifetimeSpec spec;
    spec.base.num_cores = 2;
    spec.base.l1d.size_bytes = 4_KiB;
    spec.base.llc.size_bytes = 16_KiB;
    spec.base.dram.size_bytes = 64_MiB;
    spec.base.nvmm.size_bytes = 64_MiB;
    spec.base.bbpb.entries = 8;
    spec.base.l1d.repl = ReplPolicy::Random;
    spec.base.llc.repl = ReplPolicy::Random;
    spec.params.ops_per_thread = 120;
    spec.params.initial_elements = 40;
    spec.params.array_elements = 1 << 12;
    spec.rounds = 3;
    spec.lifetimes = 1;
    spec.min_crash_tick = nsToTicks(2000);
    spec.max_crash_tick = nsToTicks(60000);
    spec.campaign_seed = 7;
    return spec;
}

} // namespace

TEST(LifetimeCampaign, PlanIsAPureFunctionOfTheSpec)
{
    LifetimeSpec spec = smallSpec();
    spec.workloads = {"hashmap", "skiplist"};
    auto a = planLifetimeCampaign(spec);
    auto b = planLifetimeCampaign(spec);
    ASSERT_EQ(a.size(), b.size());
    // 2 workloads x 4 safe modes x 5 fault presets x 1 lifetime.
    EXPECT_EQ(a.size(), 2u * 4u * faultPlanPresets().size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].seed, b[i].seed);
        EXPECT_EQ(a[i].workload, b[i].workload);
        EXPECT_EQ(a[i].cfg.mode, b[i].cfg.mode);
        EXPECT_EQ(a[i].plan_name, b[i].plan_name);
    }
}

TEST(LifetimeCampaign, ThreeRoundsZeroViolationsAcrossSafeModes)
{
    LifetimeSpec spec = smallSpec();
    spec.workloads = {"linkedlist", "skiplist"};
    spec.plans = {{"none", FaultPlan::parse("none")},
                  {"drained-battery", FaultPlan::parse("drained-battery")},
                  {"flaky-media", FaultPlan::parse("flaky-media")}};

    LifetimeSummary summary = runLifetimeCampaign(spec);
    EXPECT_EQ(summary.violations, 0u)
        << (summary.firstViolation()
                ? summary.firstViolation()->reproLine()
                : "");
    EXPECT_TRUE(summary.allClassified());
    EXPECT_EQ(summary.results.size(), 2u * 4u * 3u);

    // Ledgered damage must always come back degraded-repaired: a
    // damaged round may never abort, and may never masquerade as clean.
    for (const LifetimeResult &r : summary.results) {
        for (const LifetimeRound &rr : r.round_log) {
            EXPECT_NE(rr.recovery, RecoveryStatus::Unrecoverable)
                << r.reproLine();
            if (rr.damaged_blocks > 0)
                EXPECT_EQ(rr.recovery, RecoveryStatus::DegradedRepaired)
                    << r.reproLine();
        }
    }
}

TEST(LifetimeCampaign, SummaryBitIdenticalAtAnyJobsWidth)
{
    LifetimeSpec spec = smallSpec();
    spec.workloads = {"hashmap"};
    spec.modes = {PersistMode::Eadr, PersistMode::BbbMemSide};
    spec.plans = {{"none", FaultPlan::parse("none")},
                  {"drained-battery", FaultPlan::parse("drained-battery")}};

    LifetimeSummary serial = runLifetimeCampaign(spec, 1);
    LifetimeSummary wide = runLifetimeCampaign(spec, 4);

    EXPECT_EQ(serial.clean, wide.clean);
    EXPECT_EQ(serial.degraded, wide.degraded);
    EXPECT_EQ(serial.violations, wide.violations);
    ASSERT_EQ(serial.results.size(), wide.results.size());
    for (std::size_t i = 0; i < serial.results.size(); ++i) {
        EXPECT_EQ(serial.results[i].outcome, wide.results[i].outcome);
        EXPECT_EQ(serial.results[i].image_fingerprint,
                  wide.results[i].image_fingerprint)
            << serial.results[i].reproLine();
        ASSERT_EQ(serial.results[i].round_log.size(),
                  wide.results[i].round_log.size());
        for (std::size_t k = 0; k < serial.results[i].round_log.size(); ++k)
            EXPECT_EQ(serial.results[i].round_log[k].image_fingerprint,
                      wide.results[i].round_log[k].image_fingerprint);
    }
    // The aggregated lifetime metric tree must also be byte-identical.
    EXPECT_FALSE(serial.metrics.empty());
    EXPECT_EQ(serial.metrics.toJson(), wide.metrics.toJson());
    EXPECT_EQ(serial.metrics.count("lifetime.lifetimes"),
              serial.results.size());
}

TEST(LifetimeCampaign, ThirtyTwoCoreHashmapRunsAndRecovers)
{
    // Every workload thread owns one heap root slot, so machines past
    // 16 cores need the header's slot table to cover the 64-core limit.
    LifetimeSpec spec = smallSpec();
    spec.base.num_cores = 32;
    spec.params.ops_per_thread = 40;
    spec.params.initial_elements = 20;

    System sys(spec.base);
    auto wl = makeWorkload("hashmap", spec.params);
    wl->install(sys);
    sys.run();
    EXPECT_GT(sys.executionTime(), 0u);
    sys.crashNow();
    EXPECT_TRUE(wl->checkRecovery(sys.pmemImage()).consistent());

    // One crash -> recover -> resume lifetime on the same machine shape.
    LifetimeSample sample;
    sample.cfg = spec.base;
    sample.workload = "hashmap";
    sample.params = spec.params;
    sample.plan = FaultPlan::parse("none");
    sample.plan_name = "none";
    sample.seed = 3;
    sample.rounds = 2;
    sample.min_crash_tick = spec.min_crash_tick;
    sample.max_crash_tick = spec.max_crash_tick;
    LifetimeResult r = runLifetimeSample(sample);
    EXPECT_EQ(r.outcome, LifetimeOutcome::Clean) << r.reproLine();
    EXPECT_EQ(r.round_log.size(), 2u);
}
