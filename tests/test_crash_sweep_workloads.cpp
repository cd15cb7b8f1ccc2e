/**
 * @file
 * Crash-point sweeps across every structured workload under BBB: the
 * recovery checker must find a consistent image at arbitrary crash
 * points, with live invariant validation sampled during the run.
 */

#include <gtest/gtest.h>

#include "api/system.hh"
#include "recover/lifetime.hh"
#include "workloads/workload.hh"

using namespace bbb;

class WorkloadCrashSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{
};

TEST_P(WorkloadCrashSweep, ImageConsistentAtArbitraryCrashPoints)
{
    auto [name, point] = GetParam();
    SystemConfig cfg = campaignConfig(); // bbb-mem-side
    System sys(cfg);

    WorkloadParams p;
    p.ops_per_thread = 1500;
    p.initial_elements = 200;
    p.array_elements = 1 << 12;
    auto wl = makeWorkload(name, p);
    wl->install(sys);

    // Sample the structural invariants while the machine is hot.
    for (int i = 1; i <= 4; ++i) {
        sys.eventQueue().schedule(nsToTicks(4000ull * point * i),
                                  [&]() { sys.checkInvariants(); });
    }

    sys.runAndCrashAt(nsToTicks(17000ull * point * point));
    RecoveryResult res = wl->checkRecovery(sys.pmemImage());
    EXPECT_EQ(res.torn, 0u) << name << " crash point " << point;
    EXPECT_EQ(res.dangling, 0u) << name << " crash point " << point;
    EXPECT_GT(res.checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Structures, WorkloadCrashSweep,
    ::testing::Combine(::testing::Values("hashmap", "ctree", "rtree",
                                         "btree", "rtree-spatial",
                                         "skiplist"),
                       ::testing::Range(1, 6)),
    [](const auto &param_info) {
        std::string name = std::get<0>(param_info.param);
        for (auto &ch : name) {
            if (ch == '-')
                ch = '_';
        }
        return name + "_p" + std::to_string(std::get<1>(param_info.param));
    });

TEST(WorkloadCrashSweepExtra, ProcSideSweepAlsoConsistent)
{
    for (int point = 1; point <= 4; ++point) {
        SystemConfig cfg = campaignConfig();
        cfg.mode = PersistMode::BbbProcSide;
        System sys(cfg);
        WorkloadParams p;
        p.ops_per_thread = 1000;
        p.initial_elements = 100;
        auto wl = makeWorkload("hashmap", p);
        wl->install(sys);
        sys.runAndCrashAt(nsToTicks(15000ull * point * point));
        RecoveryResult res = wl->checkRecovery(sys.pmemImage());
        EXPECT_TRUE(res.consistent()) << "point " << point;
    }
}

TEST(WorkloadCrashSweepExtra, DrainPoliciesSweepConsistent)
{
    for (DrainPolicy policy :
         {DrainPolicy::Fcfs, DrainPolicy::Lrw, DrainPolicy::Random}) {
        SystemConfig cfg = campaignConfig(); // bbb-mem-side
        cfg.bbpb.drain_policy = policy;
        System sys(cfg);
        WorkloadParams p;
        p.ops_per_thread = 1000;
        p.initial_elements = 100;
        auto wl = makeWorkload("ctree", p);
        wl->install(sys);
        sys.runAndCrashAt(nsToTicks(40000));
        RecoveryResult res = wl->checkRecovery(sys.pmemImage());
        EXPECT_TRUE(res.consistent()) << drainPolicyName(policy);
    }
}
