/**
 * @file
 * The crash–recover–resume lifetime campaign (src/recover/lifetime.hh):
 *
 *  - planLifetimeCampaign is a pure function of the spec;
 *  - K = 3 rounds across every safe persistency mode and representative
 *    fault plans produce zero durable-linearizability oracle violations;
 *  - every lifetime whose fault ledger recorded damage comes back
 *    degraded-repaired — recovery never aborts on ledgered damage;
 *  - campaign summaries are bit-identical at any --jobs width;
 *  - a point-crash fault campaign is the one-round lifetime sweep: it is
 *    planned deterministically, every sample is classified, none violates
 *    the oracle, the summary is bit-identical at any --jobs width, and
 *    each sample replays exactly from its seed.
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
    spec.base = campaignConfig();
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

/** The point-crash campaign: one-round lifetimes at bbb-mem-side. */
LifetimeSpec
pointCrashSpec()
{
    LifetimeSpec spec = smallSpec();
    spec.workloads = {"hashmap", "btree", "skiplist"};
    spec.modes = {PersistMode::BbbMemSide};
    spec.params.ops_per_thread = 500;
    spec.params.initial_elements = 100;
    spec.rounds = 1;
    spec.lifetimes = 14;
    spec.max_crash_tick = nsToTicks(120000);
    spec.campaign_seed = 2026;
    return spec;
}

void
expectSameRound(const LifetimeRound &a, const LifetimeRound &b)
{
    EXPECT_EQ(a.crash_tick, b.crash_tick);
    EXPECT_EQ(a.image_fingerprint, b.image_fingerprint);
    EXPECT_EQ(a.damaged_blocks, b.damaged_blocks);
    EXPECT_EQ(a.retired_frames, b.retired_frames);
    EXPECT_EQ(a.recovery, b.recovery);
    EXPECT_EQ(a.repairs, b.repairs);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.healed.intact, b.healed.intact);
    EXPECT_EQ(a.healed.torn, b.healed.torn);
    EXPECT_EQ(a.healed.dangling, b.healed.dangling);
    EXPECT_EQ(a.report.wpq_blocks, b.report.wpq_blocks);
    EXPECT_EQ(a.report.bbpb_blocks, b.report.bbpb_blocks);
    EXPECT_EQ(a.report.sb_entries, b.report.sb_entries);
    EXPECT_EQ(a.report.drained_bytes, b.report.drained_bytes);
    EXPECT_EQ(a.report.sacrificed_blocks, b.report.sacrificed_blocks);
    EXPECT_EQ(a.report.torn_media_blocks, b.report.torn_media_blocks);
    EXPECT_EQ(a.report.media_retries, b.report.media_retries);
    EXPECT_EQ(a.report.recrashes, b.report.recrashes);
    EXPECT_EQ(a.report.battery_exhausted, b.report.battery_exhausted);
    EXPECT_EQ(a.report.drain_prefix_ok, b.report.drain_prefix_ok);
    EXPECT_DOUBLE_EQ(a.report.battery_spent_j, b.report.battery_spent_j);
}

/** Runs @p spec at --jobs 1 and 4 and expects identical summaries. */
void
expectSameSummaryAtJobs1And4(const LifetimeSpec &spec)
{
    LifetimeSummary serial = runLifetimeCampaign(spec, 1);
    LifetimeSummary wide = runLifetimeCampaign(spec, 4);

    EXPECT_EQ(serial.clean, wide.clean);
    EXPECT_EQ(serial.degraded, wide.degraded);
    EXPECT_EQ(serial.violations, wide.violations);
    ASSERT_EQ(serial.results.size(), wide.results.size());
    for (std::size_t i = 0; i < serial.results.size(); ++i) {
        const LifetimeResult &a = serial.results[i];
        const LifetimeResult &b = wide.results[i];
        EXPECT_EQ(a.outcome, b.outcome);
        EXPECT_EQ(a.image_fingerprint, b.image_fingerprint)
            << a.reproLine();
        ASSERT_EQ(a.round_log.size(), b.round_log.size());
        for (std::size_t k = 0; k < a.round_log.size(); ++k)
            expectSameRound(a.round_log[k], b.round_log[k]);
    }
    // The aggregated lifetime metric tree must also be byte-identical.
    EXPECT_FALSE(serial.metrics.empty());
    EXPECT_EQ(serial.metrics.toJson(), wide.metrics.toJson());
    EXPECT_EQ(serial.metrics.count("lifetime.lifetimes"),
              serial.results.size());
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
            if (rr.damaged_blocks > 0) {
                EXPECT_EQ(rr.recovery, RecoveryStatus::DegradedRepaired)
                    << r.reproLine();
            }
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
    expectSameSummaryAtJobs1And4(spec);
}

TEST(CrashCampaign, PlanIsAPureFunctionOfTheSpec)
{
    // The point-crash shape: 3 workloads x 5 presets x 14 one-round
    // lifetimes, planned identically every time.
    auto a = planLifetimeCampaign(pointCrashSpec());
    auto b = planLifetimeCampaign(pointCrashSpec());
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.size(), 3u * faultPlanPresets().size() * 14u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].rounds, 1u);
        EXPECT_EQ(a[i].seed, b[i].seed);
        EXPECT_EQ(a[i].workload, b[i].workload);
        EXPECT_EQ(a[i].cfg.mode, b[i].cfg.mode);
        EXPECT_EQ(a[i].plan_name, b[i].plan_name);
    }

    // A different campaign seed moves the sampled seeds.
    LifetimeSpec other = pointCrashSpec();
    other.campaign_seed = 2027;
    auto c = planLifetimeCampaign(other);
    ASSERT_GE(c.size(), 2u);
    EXPECT_NE(a[0].seed ^ a[1].seed, c[0].seed ^ c[1].seed);
}

TEST(CrashCampaign, SerialAndParallelSummariesAreBitIdentical)
{
    // One-round lifetimes under every preset, at --jobs 1 and 4.
    LifetimeSpec points = pointCrashSpec();
    points.workloads = {"hashmap", "linkedlist"};
    points.lifetimes = 3;
    expectSameSummaryAtJobs1And4(points);
}

TEST(CrashCampaign, FullSweepClassifiesEverySampleWithNoViolations)
{
    LifetimeSummary summary = runLifetimeCampaign(pointCrashSpec());

    ASSERT_GE(summary.results.size(), 200u)
        << "acceptance floor: >= 200 samples across >= 3 workloads";
    EXPECT_TRUE(summary.allClassified());
    EXPECT_GT(summary.clean, 0u)
        << "no fault-free sample recovered cleanly";
    EXPECT_GT(summary.degraded, 0u)
        << "no plan ever damaged anything; the campaign is vacuous";
    const LifetimeResult *bug = summary.firstViolation();
    EXPECT_EQ(summary.violations, 0u)
        << "repro: " << (bug ? bug->reproLine() : "");

    // The "none" preset must reproduce the fault-free behaviour exactly.
    bool battery_degraded = false;
    for (const LifetimeResult &r : summary.results) {
        ASSERT_EQ(r.round_log.size(), 1u) << r.reproLine();
        const LifetimeRound &rr = r.round_log[0];
        if (r.plan_name == "none") {
            EXPECT_EQ(r.outcome, LifetimeOutcome::Clean) << r.reproLine();
            EXPECT_EQ(rr.damaged_blocks, 0u);
            EXPECT_EQ(rr.report.sacrificed_blocks, 0u);
            EXPECT_TRUE(rr.healed.consistent());
        }
        if (r.plan_name == "drained-battery" &&
            rr.report.battery_exhausted &&
            r.outcome == LifetimeOutcome::DegradedRepaired)
            battery_degraded = true;
    }
    // And the undersized battery must show graceful degradation.
    EXPECT_TRUE(battery_degraded)
        << "no battery plan exhausted mid-drain; shrink battery_j";
}

TEST(CrashCampaign, SampleReplayIsExact)
{
    // The repro contract: re-running a planned one-round sample (what
    // the --workload/--mode/--seed/--rounds 1/--fault-plan flags
    // reconstruct) reproduces it bit for bit -- including a double-crash
    // (re-crash mid-drain) plan.
    LifetimeSpec spec = pointCrashSpec();
    spec.workloads = {"ctree"};
    spec.lifetimes = 2;
    std::vector<LifetimeSample> samples = planLifetimeCampaign(spec);

    const LifetimeSample *recrash = nullptr;
    for (const LifetimeSample &s : samples) {
        if (s.plan.recrash_after_blocks > 0)
            recrash = &s;
    }
    ASSERT_NE(recrash, nullptr) << "presets no longer include a recrash plan";

    const LifetimeSample *first_sample = &samples.front();
    for (const LifetimeSample *s : {first_sample, recrash}) {
        LifetimeResult first = runLifetimeSample(*s);
        LifetimeResult again = runLifetimeSample(*s);
        EXPECT_EQ(first.outcome, again.outcome);
        EXPECT_EQ(first.reproLine(), again.reproLine());
        EXPECT_NE(first.reproLine().find("--rounds 1"), std::string::npos);
        ASSERT_EQ(first.round_log.size(), 1u);
        ASSERT_EQ(again.round_log.size(), 1u);
        expectSameRound(first.round_log[0], again.round_log[0]);
    }
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
