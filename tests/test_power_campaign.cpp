/**
 * @file
 * Tests for the power-trace crash scheduler and the power-trace lifetime
 * campaign: window carving (outages, brownouts, warnings, recharge
 * gating), graceful-degradation policy effects, degradation-not-
 * corruption classification, and charge-state determinism across worker
 * pool widths.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "energy/energy_model.hh"
#include "power/power_scheduler.hh"
#include "recover/lifetime.hh"

using namespace bbb;

namespace
{

LifetimeSpec
powerSpec()
{
    LifetimeSpec spec;
    spec.base = campaignConfig();
    spec.workloads = {"hashmap"};
    spec.modes = {PersistMode::BbbMemSide, PersistMode::BbbProcSide};
    spec.params.ops_per_thread = 250;
    spec.params.initial_elements = 80;
    spec.rounds = 3;
    spec.lifetimes = 1;
    spec.campaign_seed = 5;
    spec.traces = {"brownout:cycles=2", "square:cycles=2"};
    spec.battery_caps = {2e-6, 50e-6};
    spec.policies = {DegradePolicy::None, DegradePolicy::DrainOldest};
    return spec;
}

} // namespace

// --- PowerScheduler window carving ----------------------------------

TEST(PowerScheduler, SquareTraceYieldsOneWindowPerOnSpan)
{
    PowerTrace trace = PowerTrace::parse("square:cycles=3");
    PowerScheduler sched(trace, BatterySpec::fromCapacityJ(50e-6));
    PowerWindow w;
    unsigned windows = 0;
    while (sched.nextWindow(&w)) {
        ++windows;
        EXPECT_EQ(w.runTicks(), nsToTicks(45000)) << "window " << windows;
        EXPECT_FALSE(w.brownout_outage);
        EXPECT_GT(w.charge_at_outage, 0.0);
    }
    EXPECT_EQ(windows, 3u);
    EXPECT_EQ(sched.stats().outages, 3u);
    // The trace ends inside the final off span, so the fourth window
    // attempt correctly reports starvation (no supply left to resume).
    EXPECT_TRUE(sched.stats().starved);
}

TEST(PowerScheduler, BrownoutRiddenThroughWithAmpleCharge)
{
    // brownout preset: 60 us full, 25 us at 0.35 (above uv 0.25, below
    // breakeven 0.4 => discharging), 10 us dead. A large battery rides
    // the dip; the outage only comes from the dead span.
    PowerTrace trace = PowerTrace::parse("brownout:cycles=1");
    PowerScheduler sched(trace, BatterySpec::fromCapacityJ(50e-6));
    PowerWindow w;
    ASSERT_TRUE(sched.nextWindow(&w));
    EXPECT_EQ(w.runTicks(), nsToTicks(85000));
    EXPECT_FALSE(w.brownout_outage);
    EXPECT_EQ(w.brownouts_survived, 1u);
    EXPECT_EQ(sched.stats().brownouts_survived, 1u);
}

TEST(PowerScheduler, TinyBatteryEmptiesMidBrownout)
{
    // Drop a pre-drained battery into a long brownout: it must empty
    // mid-dip (a zero-budget outage) after the warning fired.
    PowerTrace trace = PowerTrace::parse("seg:0-1000@1;1000-2000000@0.3");
    BatterySpec spec = BatterySpec::fromCapacityJ(1e-6);
    spec.initial_soc = 0.5;
    PowerScheduler sched(trace, spec);
    bool warned = false;
    sched.setWarningHook([&](Tick, double charge) {
        warned = true;
        EXPECT_GT(charge, 0.0);
        return 0.0;
    });
    PowerWindow w;
    ASSERT_TRUE(sched.nextWindow(&w));
    EXPECT_TRUE(w.brownout_outage);
    EXPECT_EQ(w.charge_at_outage, 0.0);
    EXPECT_TRUE(warned);
    EXPECT_TRUE(w.has_warning);
    EXPECT_LT(w.warning, w.outage);
    EXPECT_EQ(sched.stats().brownout_outages, 1u);
    EXPECT_EQ(sched.stats().warnings, 1u);
}

TEST(PowerScheduler, ResumeWaitsForRechargeAboveThreshold)
{
    // After the first outage the battery is drained near empty by
    // noteCrashSpend; the second on-span must first recharge to the
    // power-on threshold, shortening (delaying into) the run window.
    PowerTrace trace = PowerTrace::parse("square:cycles=2");
    PowerScheduler sched(trace, BatterySpec::fromCapacityJ(20e-6));
    PowerWindow w;
    ASSERT_TRUE(sched.nextWindow(&w));
    sched.noteCrashSpend(sched.chargeJ(), true, 1e-6); // drain it all
    EXPECT_EQ(sched.chargeJ(), 0.0);
    ASSERT_TRUE(sched.nextWindow(&w));
    EXPECT_EQ(sched.stats().resume_waits, 1u);
    EXPECT_GT(sched.stats().resume_wait_ticks, 0u);
    // min headroom records the exhaustion shortfall as negative.
    EXPECT_DOUBLE_EQ(sched.stats().min_headroom_j, -1e-6);
}

TEST(PowerScheduler, StarvesWhenTheTraceEndsWhileOff)
{
    PowerTrace trace = PowerTrace::parse("seg:0-40000@1");
    PowerScheduler sched(trace, BatterySpec::fromCapacityJ(20e-6));
    PowerWindow w;
    ASSERT_TRUE(sched.nextWindow(&w)); // runs to trace end
    sched.noteCrashSpend(sched.chargeJ(), false, 0.0);
    EXPECT_FALSE(sched.nextWindow(&w));
    EXPECT_TRUE(sched.stats().starved);
}

TEST(PowerScheduler, ThrottlePolicySlowsTheDischarge)
{
    // Same trace and battery; the throttled run must last longer after
    // the warning. At supply 0.3 the full load drains at a net
    // 0.3*1.0 - 0.4 = -0.1 W, but the throttled load 0.5 flips that to
    // +0.1 W: the throttled machine rides the brownout out to the end
    // of the trace instead of emptying mid-dip.
    const char *token = "seg:0-1000@1;1000-3000000@0.3";
    BatterySpec spec = BatterySpec::fromCapacityJ(2e-6);
    spec.initial_soc = 0.5;

    PowerScheduler plain(PowerTrace::parse(token), spec);
    PowerWindow pw;
    ASSERT_TRUE(plain.nextWindow(&pw));

    PowerScheduler throttled(PowerTrace::parse(token), spec);
    throttled.setPostWarningLoad(0.5);
    PowerWindow tw;
    ASSERT_TRUE(throttled.nextWindow(&tw));

    ASSERT_TRUE(pw.brownout_outage);
    EXPECT_FALSE(tw.brownout_outage); // throttle rescued the brownout
    EXPECT_TRUE(tw.has_warning);
    EXPECT_GT(tw.runTicks(), pw.runTicks());
}

TEST(PowerScheduler, WarningHookSpendIsDebited)
{
    const char *token = "seg:0-1000@1;1000-3000000@0.3";
    BatterySpec spec = BatterySpec::fromCapacityJ(2e-6);
    spec.initial_soc = 0.5;

    PowerScheduler plain(PowerTrace::parse(token), spec);
    PowerWindow pw;
    ASSERT_TRUE(plain.nextWindow(&pw));

    // A hook that spends energy (a proactive drain) hastens the outage.
    PowerScheduler spending(PowerTrace::parse(token), spec);
    spending.setWarningHook([](Tick, double) { return 0.2e-6; });
    PowerWindow sw;
    ASSERT_TRUE(spending.nextWindow(&sw));
    EXPECT_LT(sw.runTicks(), pw.runTicks());
    EXPECT_DOUBLE_EQ(spending.stats().energy_drain_j, 0.2e-6);
}

// --- Power-trace lifetime campaigns ---------------------------------

TEST(PowerCampaign, EveryPlanRunsUnderEveryPowerEnvironment)
{
    LifetimeSpec spec = powerSpec();
    spec.modes = {PersistMode::BbbMemSide};
    spec.traces = {"brownout:cycles=2"};
    EXPECT_EQ(spec.planFamily().size(), 1u); // just "none" by default
    spec.plans = {{"none", FaultPlan{}},
                  {"flaky-media", FaultPlan::parse("flaky-media")}};
    std::vector<LifetimeSample> samples = planLifetimeCampaign(spec);
    // 2 caps x 2 policies x 2 plans, one lifetime each.
    ASSERT_EQ(samples.size(), 8u);
    EXPECT_EQ(samples[0].plan_name, "brownout:cycles=2+2e-06J+none");
    EXPECT_EQ(samples[1].plan_name,
              "brownout:cycles=2+2e-06J+none+flaky-media");
    EXPECT_EQ(samples[7].power_env.capacity_j, 50e-6);
    EXPECT_EQ(samples[7].power_env.policy, DegradePolicy::DrainOldest);
    for (const LifetimeSample &s : samples) {
        EXPECT_EQ(s.power_env.trace, "brownout:cycles=2");
        // The plan token is the cell's own plan, power fields apart.
        std::string line = s.reproLine();
        EXPECT_NE(line.find(" --fault-plan " + s.plan.toString()),
                  std::string::npos)
            << line;
        EXPECT_NE(line.find(" --trace brownout:cycles=2 --battery-j "),
                  std::string::npos)
            << line;
    }
}

TEST(PowerCampaign, UndersizedBatteriesDegradeButNeverViolate)
{
    LifetimeSpec spec = powerSpec();
    LifetimeSummary summary = runLifetimeCampaign(spec, 0);

    EXPECT_EQ(summary.violations, 0u);
    EXPECT_TRUE(summary.allClassified());
    ASSERT_FALSE(summary.results.empty());

    bool any_degraded = false, any_clean = false;
    for (const LifetimeResult &r : summary.results) {
        EXPECT_TRUE(r.powered);
        EXPECT_NE(r.outcome, LifetimeOutcome::OracleViolation)
            << r.reproLine();
        if (r.power_env.capacity_j <= 2e-6 &&
            r.outcome == LifetimeOutcome::DegradedRepaired)
            any_degraded = true;
        if (r.power_env.capacity_j >= 50e-6 &&
            r.outcome == LifetimeOutcome::Clean)
            any_clean = true;
        for (const LifetimeRound &rr : r.round_log) {
            EXPECT_TRUE(rr.power_round);
            EXPECT_GE(rr.charge_at_outage, 0.0);
        }
    }
    // The sweep spans the interesting range: too small degrades, big
    // enough survives clean.
    EXPECT_TRUE(any_degraded);
    EXPECT_TRUE(any_clean);

    // The campaign metric tree carries the power aggregates.
    EXPECT_GT(summary.metrics.count("power.outages"), 0u);
    EXPECT_EQ(summary.metrics.count("power.lifetimes"),
              summary.results.size());
}

TEST(PowerCampaign, DrainOldestPolicyDrainsBeforeTheOutage)
{
    // A mid-sized battery that warns before failing: drain-oldest must
    // proactively move blocks out while none-policy lifetimes at the
    // same capacity sacrifice more at the crash.
    LifetimeSpec spec = powerSpec();
    spec.traces = {"seg:0-60000@1;60000-400000@0.3"};
    spec.battery_caps = {4e-6};
    spec.policies = {DegradePolicy::None, DegradePolicy::DrainOldest};
    LifetimeSummary summary = runLifetimeCampaign(spec, 0);

    EXPECT_EQ(summary.violations, 0u);
    std::uint64_t drained = 0;
    bool saw_warning = false;
    for (const LifetimeResult &r : summary.results) {
        for (const LifetimeRound &rr : r.round_log) {
            saw_warning = saw_warning || rr.had_warning;
            if (r.power_env.policy == DegradePolicy::DrainOldest)
                drained += rr.proactive_blocks;
        }
    }
    EXPECT_TRUE(saw_warning);
    EXPECT_GT(drained, 0u);
    EXPECT_EQ(summary.metrics.count("power.proactive_drain_blocks"),
              drained);
}

TEST(PowerCampaign, RefuseDirtyAndThrottleStayClassified)
{
    LifetimeSpec spec = powerSpec();
    spec.modes = {PersistMode::BbbMemSide};
    spec.traces = {"brownout:cycles=2"};
    spec.battery_caps = {4e-6};
    spec.policies = {DegradePolicy::Throttle, DegradePolicy::RefuseDirty};
    LifetimeSummary summary = runLifetimeCampaign(spec, 0);
    EXPECT_EQ(summary.violations, 0u);
    EXPECT_TRUE(summary.allClassified());
}

TEST(PowerCampaign, SummaryBitIdenticalAtAnyJobsWidth)
{
    LifetimeSpec spec = powerSpec();
    LifetimeSummary a = runLifetimeCampaign(spec, 1);
    LifetimeSummary b = runLifetimeCampaign(spec, 8);
    EXPECT_EQ(a.metrics.toJson(), b.metrics.toJson());
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        EXPECT_EQ(a.results[i].reproLine(), b.results[i].reproLine());
        EXPECT_EQ(a.results[i].image_fingerprint,
                  b.results[i].image_fingerprint);
        EXPECT_EQ(a.results[i].power.min_headroom_j,
                  b.results[i].power.min_headroom_j);
    }
}

TEST(PowerCampaign, ReplayFromTheReproPlanIsExact)
{
    LifetimeSpec spec = powerSpec();
    spec.traces = {"outages:seed=3:cycles=3"};
    spec.battery_caps = {4e-6};
    spec.policies = {DegradePolicy::DrainOldest};
    spec.modes = {PersistMode::BbbMemSide};
    LifetimeSummary summary = runLifetimeCampaign(spec, 0);
    ASSERT_FALSE(summary.results.empty());
    const LifetimeResult &orig = summary.results[0];

    // Reassemble the sample exactly as the repro line's flags would.
    LifetimeSample sample;
    sample.cfg = spec.base;
    sample.cfg.mode = orig.mode;
    sample.workload = orig.workload;
    sample.params = spec.params;
    sample.plan = orig.plan;
    sample.power_env = orig.power_env;
    sample.seed = orig.seed;
    sample.rounds = orig.rounds;
    LifetimeResult replay = runLifetimeSample(sample);

    EXPECT_EQ(replay.outcome, orig.outcome);
    EXPECT_EQ(replay.image_fingerprint, orig.image_fingerprint);
    ASSERT_EQ(replay.round_log.size(), orig.round_log.size());
    for (std::size_t i = 0; i < replay.round_log.size(); ++i) {
        EXPECT_EQ(replay.round_log[i].crash_tick,
                  orig.round_log[i].crash_tick);
        EXPECT_EQ(replay.round_log[i].charge_at_outage,
                  orig.round_log[i].charge_at_outage);
    }
}
