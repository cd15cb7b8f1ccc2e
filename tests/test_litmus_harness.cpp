/**
 * @file
 * End-to-end tests for the litmus model checker: the smoke corpus must
 * pass clean, seeded mutations must be caught (the mutation-kill
 * self-check: a checker that cannot fail is not checking), replay must
 * reproduce verdicts, and the enumeration budget must fail loudly.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <unistd.h>
#include <vector>

#include "litmus/corpus.hh"
#include "litmus/harness.hh"

using namespace bbb::litmus;
using bbb::PersistMode;
using bbb::persistModeName;

// gtest also defines a class named Test.
using LitTest = bbb::litmus::Test;

namespace
{

/** Scope guard for the BBB_LITMUS_MUTATE switch. */
struct MutateGuard
{
    explicit MutateGuard(const char *name)
    {
        setenv("BBB_LITMUS_MUTATE", name, 1);
    }
    ~MutateGuard() { unsetenv("BBB_LITMUS_MUTATE"); }
};

const LitTest &
mustFind(const char *name)
{
    const LitTest *t = findTest(name);
    EXPECT_NE(t, nullptr) << name;
    return *t;
}

} // namespace

TEST(LitmusHarness, SmokeCorpusPassesClean)
{
    unsetenv("BBB_LITMUS_MUTATE");
    HarnessResult r = checkCorpus(smokeCorpus(), HarnessOptions());
    for (const Violation &v : r.violations)
        ADD_FAILURE() << v.format();
    EXPECT_TRUE(r.ok());
    EXPECT_GT(r.sim_runs, 0u);
    EXPECT_GT(r.battery_runs, 0u);
}

// ---------------------------------------------------------------------
// Mutation kill: each seeded bug must be caught by the specific test
// that targets its mechanism (and therefore by the smoke corpus).
// ---------------------------------------------------------------------

TEST(LitmusHarness, MutationKillDrainYoungest)
{
    // Retiring the youngest store-buffer entry first reorders two
    // same-variable stores; the strict image check on coww sees the
    // stale value win.
    MutateGuard mutate("drain-youngest");
    HarnessResult r = checkTest(mustFind("coww"), HarnessOptions());
    EXPECT_FALSE(r.ok());
}

TEST(LitmusHarness, MutationKillCrashReverseDrain)
{
    // Draining the bbPB newest-first at crash only shows up when the
    // battery dies mid-drain: the undersized-battery sweep sees the
    // wrong prefix survive.
    MutateGuard mutate("crash-reverse-drain");
    HarnessResult r = checkTest(mustFind("battery-prefix-1"),
                                HarnessOptions());
    EXPECT_FALSE(r.ok());
}

TEST(LitmusHarness, MutationKillCrashReverseDrainInEachOrganisation)
{
    // Both bbPB organisations stream their crash drain through the same
    // engine: the reversed drain must be caught in each one alone.
    MutateGuard mutate("crash-reverse-drain");
    for (PersistMode m : {PersistMode::BbbMemSide, PersistMode::BbbProcSide}) {
        HarnessOptions opts;
        opts.modes = {m};
        EXPECT_FALSE(checkTest(mustFind("battery-prefix-1"), opts).ok())
            << persistModeName(m);
    }
}

TEST(LitmusHarness, MutationKillFlushDrop)
{
    // A flush that retires without writing back leaves fence-confirmed
    // data volatile: the durability-bound check on any pmem_strict
    // lowering catches the loss.
    MutateGuard mutate("flush-drop");
    HarnessOptions opts;
    opts.modes = {PersistMode::PmemStrict};
    HarnessResult r = checkTest(mustFind("sb"), opts);
    EXPECT_FALSE(r.ok());
}

TEST(LitmusHarness, MutationsDoNotLeakAcrossTests)
{
    // Positive control: with the switch clear, the same three tests
    // pass — the kills above come from the seeded bugs, not flakiness.
    unsetenv("BBB_LITMUS_MUTATE");
    HarnessOptions opts;
    EXPECT_TRUE(checkTest(mustFind("coww"), opts).ok());
    EXPECT_TRUE(checkTest(mustFind("battery-prefix-1"), opts).ok());
    HarnessOptions strict;
    strict.modes = {PersistMode::PmemStrict};
    EXPECT_TRUE(checkTest(mustFind("sb"), strict).ok());

    // ...and so does the replay ReplayRunsTheBatterySweep kills.
    std::vector<Step> steps;
    std::string err;
    ASSERT_TRUE(parseSchedule("0 0 0d 0d", &steps, &err)) << err;
    bool ok = false;
    std::string report =
        replaySchedule(mustFind("battery-prefix-1"),
                       PersistMode::BbbMemSide, steps, &ok);
    EXPECT_TRUE(ok) << report;
}

// ---------------------------------------------------------------------
// Budget, replay, and watchdog plumbing.
// ---------------------------------------------------------------------

TEST(LitmusHarness, MaxNodesBudgetFailsLoudly)
{
    HarnessOptions opts;
    opts.max_nodes = 5;
    HarnessResult r = checkTest(mustFind("sb"), opts);
    ASSERT_FALSE(r.ok());
    bool budget_violation = false;
    for (const Violation &v : r.violations) {
        if (v.detail.find("max_nodes") != std::string::npos)
            budget_violation = true;
    }
    EXPECT_TRUE(budget_violation);
}

TEST(LitmusHarness, ReplayMatchesOnAValidPrefix)
{
    unsetenv("BBB_LITMUS_MUTATE");
    std::vector<Step> steps;
    std::string err;
    ASSERT_TRUE(parseSchedule("0 0d", &steps, &err)) << err;
    bool ok = false;
    std::string report =
        replaySchedule(mustFind("coww"), PersistMode::BbbMemSide, steps, &ok);
    EXPECT_TRUE(ok) << report;
    EXPECT_NE(report.find("OK"), std::string::npos);
}

TEST(LitmusHarness, ReplayRejectsUnreachablePrefixes)
{
    // A drain at the root is not enabled (nothing is buffered).
    std::vector<Step> steps = {{0, true}};
    bool ok = true;
    std::string report =
        replaySchedule(mustFind("coww"), PersistMode::BbbMemSide, steps, &ok);
    EXPECT_FALSE(ok);
    EXPECT_NE(report.find("not enabled"), std::string::npos);
}

TEST(LitmusHarness, ReplayReportsMutatedDivergence)
{
    // Under the drain-youngest mutation a two-store drain retires the
    // wrong value; the replay report must flag the divergence.
    MutateGuard mutate("drain-youngest");
    std::vector<Step> steps;
    std::string err;
    ASSERT_TRUE(parseSchedule("0 0 0d", &steps, &err)) << err;
    bool ok = true;
    std::string report =
        replaySchedule(mustFind("coww"), PersistMode::BbbMemSide, steps, &ok);
    EXPECT_FALSE(ok);
    EXPECT_NE(report.find("MISMATCH"), std::string::npos);
}

TEST(LitmusHarness, ReplayRunsTheBatterySweep)
{
    // The reverse crash drain only shows once the battery dies
    // mid-drain, so a replay of the leaf the checker reports must run
    // the same undersized-battery sweep to reproduce its verdict.
    MutateGuard mutate("crash-reverse-drain");
    std::vector<Step> steps;
    std::string err;
    ASSERT_TRUE(parseSchedule("0 0 0d 0d", &steps, &err)) << err;
    bool ok = true;
    std::string report =
        replaySchedule(mustFind("battery-prefix-1"),
                       PersistMode::BbbMemSide, steps, &ok);
    EXPECT_FALSE(ok) << report;
    EXPECT_NE(report.find("MISMATCH"), std::string::npos) << report;
}

TEST(LitmusHarnessDeath, WatchdogAbortsRunawayEnumerations)
{
    // The deadline is armed when checkTest starts, so a real blowup is
    // needed to trip it; the visit hook burns wall clock per node to
    // simulate one deterministically (sb explores far more than 8
    // nodes, so the 1 s budget expires mid-enumeration).
    EXPECT_EXIT(
        {
            setenv("BBB_JOB_TIMEOUT_S", "1", 1);
            HarnessOptions opts;
            opts.visit_hook = [] { usleep(150 * 1000); };
            checkTest(mustFind("sb"), opts);
        },
        ::testing::ExitedWithCode(1), "litmus watchdog");
}

TEST(LitmusHarnessDeath, MalformedTimeoutIsFatal)
{
    // The checker reads BBB_JOB_TIMEOUT_S through the job pool's parser:
    // a value that is not whole seconds dies instead of running
    // unguarded.
    for (const char *bad : {"abc", "+5"}) {
        EXPECT_EXIT(
            {
                setenv("BBB_JOB_TIMEOUT_S", bad, 1);
                checkTest(mustFind("coww"), HarnessOptions());
            },
            ::testing::ExitedWithCode(2), "not a whole number of seconds")
            << bad;
    }
}
