/**
 * @file
 * Unit tests for the fault layer: FaultPlan serialisation, the crash
 * drain's battery gate, media write failures (runtime and crash time),
 * the fault ledger + repair oracle, sacrifice prefix behaviour, the
 * fault-free-equivalence guarantee of a disabled plan, and the single
 * controller write path every media write count agrees on.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "api/system.hh"
#include "energy/energy_model.hh"
#include "fault/fault_injector.hh"
#include "fault/fault_plan.hh"
#include "mem/mem_ctrl.hh"
#include "recover/lifetime.hh"
#include "workloads/workload.hh"

using namespace bbb;

namespace
{

SystemConfig
smallCfg(PersistMode mode = PersistMode::BbbMemSide)
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
smallParams()
{
    WorkloadParams p;
    p.ops_per_thread = 600;
    p.initial_elements = 120;
    p.array_elements = 1 << 12;
    return p;
}

BlockData
filled(unsigned char v)
{
    BlockData d;
    d.bytes.fill(v);
    return d;
}

} // namespace

TEST(FaultPlan, RoundTripsThroughToString)
{
    std::vector<FaultPlan> plans;
    plans.push_back(FaultPlan{});
    for (const NamedFaultPlan &np : faultPlanPresets())
        plans.push_back(np.plan);
    FaultPlan custom;
    custom.battery_j = 3.25e-6;
    custom.media_fail_p = 0.015625;
    custom.media_retries = 5;
    custom.media_backoff = nsToTicks(250);
    custom.recrash_after_blocks = 7;
    custom.recrash_budget_factor = 0.375;
    custom.fault_seed = 99;
    plans.push_back(custom);

    for (const FaultPlan &plan : plans) {
        FaultPlan parsed = FaultPlan::parse(plan.toString());
        EXPECT_EQ(parsed, plan) << "token: " << plan.toString();
    }
    EXPECT_EQ(FaultPlan{}.toString(), "none");
    EXPECT_TRUE(FaultPlan::parse("drained-battery").enabled());
}

TEST(FaultPlan, IntegerKeysParseStrictly)
{
    // media_retries, recrash_blocks and fault_seed take plain decimal
    // digits that fit the field: a sign, a fraction, an exponent or an
    // out-of-range value is a malformed pair, not a plan.
    const std::string u32 = "an unsigned integer up to 4294967295";
    const std::string u64 = "an unsigned integer up to 18446744073709551615";
    for (const auto &[token, want] :
         {std::pair{"media_retries=-1", u32},
          {"media_retries=1e30", u32},
          {"media_retries=2.5", u32},
          {"media_retries=4294967296", u32},
          {"recrash_blocks=-5", u64},
          {"recrash_blocks=+5", u64},
          {"fault_seed=18446744073709551616", u64},
          {"fault_seed=0x10", u64}}) {
        EXPECT_EQ(faultPlanError(token),
                  "fault-plan value '" + std::string(token) + "' is not " +
                      want);
    }
    EXPECT_EXIT(FaultPlan::parse("battery_j=1e-6,recrash_blocks=-5"),
                ::testing::ExitedWithCode(2),
                "error: fault-plan value 'recrash_blocks=-5' is not an "
                "unsigned integer");

    // Every 64-bit seed survives toString() and back, past 2^53 too.
    FaultPlan seeded;
    seeded.fault_seed = 18446744073709551615ull;
    seeded.media_retries = 4294967295u;
    seeded.recrash_after_blocks = (1ull << 53) + 1;
    EXPECT_EQ(seeded.toString(),
              "media_retries=4294967295,recrash_blocks=9007199254740993,"
              "fault_seed=18446744073709551615");
    EXPECT_EQ(FaultPlan::parse(seeded.toString()), seeded);
}

TEST(FaultPlan, OutageTimingKeysAreNotPlanKeys)
{
    // The battery a power trace drains and the outage timing belong to
    // the lifetime (PowerEnv), not to the fault plan.
    for (const char *token : {"cap_j=4e-06", "stored_j=2e-06",
                              "trace=brownout", "policy=drain-oldest"}) {
        EXPECT_EXIT(FaultPlan::parse(token), ::testing::ExitedWithCode(2),
                    "unknown fault-plan key")
            << token;
    }
}

TEST(FaultInjector, TerminalMediaFailureTearsTheBlock)
{
    EventQueue eq;
    BackingStore store;
    DirectMedia media(store);
    StatRegistry stats;
    media.registerStats(stats);
    MemCtrl mc("nvmm", MemConfig{}, eq, media, stats);
    FaultPlan plan;
    plan.media_fail_p = 1.0; // every attempt fails
    plan.media_retries = 2;
    FaultInjector inj(plan);
    mc.setFaultInjector(&inj);
    store.writeBlock(0, filled(0xaa).bytes.data()); // old media content

    unsigned retries = 0;
    EXPECT_EQ(mc.writeThrough(0, filled(0xbb), retries), MediaAttempt::Torn);
    EXPECT_EQ(retries, 2u);

    BlockData img;
    store.readBlock(0, img.bytes.data());
    EXPECT_EQ(img.bytes[0], 0xbb);                        // new half
    EXPECT_EQ(img.bytes[FaultInjector::kTornBytes], 0xaa); // stale half
    EXPECT_EQ(stats.lookup("media", "torn_programs"), 1u);
    EXPECT_EQ(stats.lookup("nvmm", "media_retry_writes"), 2u);
    ASSERT_EQ(inj.damagedBlocks().count(0), 1u);

    // The ledger repairs the tear back to the intended content.
    inj.repairImage(store);
    store.readBlock(0, img.bytes.data());
    EXPECT_EQ(img.bytes[kBlockSize - 1], 0xbb);
}

TEST(FaultInjector, CleanWriteSupersedesLedgeredDamage)
{
    FaultPlan plan;
    plan.media_fail_p = 0.5;
    FaultInjector inj(plan);
    inj.noteDamaged(0, filled(0x11));
    ASSERT_EQ(inj.damagedBlocks().size(), 1u);
    inj.noteCleanWrite(0);
    EXPECT_TRUE(inj.damagedBlocks().empty());
}

TEST(FaultInjector, DrainedStoreBufferBytesRideIntoLedgeredIntent)
{
    // A crash-time store-buffer write onto a torn block lands on media;
    // the ledger repair must keep it rather than roll it back.
    EventQueue eq;
    BackingStore store;
    DirectMedia media(store);
    StatRegistry stats;
    MemCtrl mc("nvmm", MemConfig{}, eq, media, stats);
    FaultPlan plan;
    plan.media_fail_p = 1.0;
    plan.media_retries = 0;
    FaultInjector inj(plan);
    mc.setFaultInjector(&inj);
    unsigned retries = 0;
    ASSERT_EQ(mc.writeThrough(0, filled(0x11), retries), MediaAttempt::Torn);
    std::uint64_t v = 0x2222222222222222ull;
    mc.crashPatch(kBlockSize - 8, &v, 8);

    inj.repairImage(store);
    BlockData img;
    store.readBlock(0, img.bytes.data());
    EXPECT_EQ(img.bytes[0], 0x11);
    EXPECT_EQ(img.bytes[kBlockSize - 9], 0x11);
    EXPECT_EQ(img.bytes[kBlockSize - 8], 0x22);
    EXPECT_EQ(img.bytes[kBlockSize - 1], 0x22);
}

TEST(MemCtrl, InjectedMediaFailuresRetryWithBackoffThenTear)
{
    EventQueue eq;
    BackingStore store;
    DirectMedia media(store);
    StatRegistry stats;
    media.registerStats(stats);
    MemConfig mcfg;
    mcfg.write_latency = nsToTicks(500);
    mcfg.write_occupancy = nsToTicks(28);
    mcfg.channels = 1;
    mcfg.wpq_entries = 4;
    MemCtrl mc("nvmm", mcfg, eq, media, stats);

    FaultPlan plan;
    plan.media_fail_p = 1.0;
    plan.media_retries = 3;
    plan.media_backoff = nsToTicks(100);
    FaultInjector inj(plan);
    mc.setFaultInjector(&inj);

    ASSERT_TRUE(mc.enqueueWrite(0, filled(0x5a)));
    eq.run();

    // 3 retries with exponential backoff, then the terminal tear.
    EXPECT_EQ(stats.lookup("nvmm", "media_retry_writes"), 3u);
    EXPECT_EQ(stats.lookup("nvmm", "media_writes"), 1u);
    EXPECT_EQ(stats.lookup("media", "torn_programs"), 1u);
    EXPECT_EQ(mc.wpqOccupancy(), 0u);
    BlockData img;
    store.readBlock(0, img.bytes.data());
    EXPECT_EQ(img.bytes[0], 0x5a);
    EXPECT_EQ(img.bytes[kBlockSize - 1], 0x00); // second half never landed
    // Backoff was charged as simulated time: 100 + 200 + 400 ns of
    // backoff plus four write latencies must have elapsed.
    EXPECT_GE(eq.now(), nsToTicks(100 + 200 + 400) + 4 * mcfg.write_latency);
}

TEST(System, DisabledPlanIsBitIdenticalToNoPlan)
{
    CrashReport reports[2];
    std::uint64_t prints[2];
    for (int with_plan = 0; with_plan < 2; ++with_plan) {
        SystemConfig cfg = smallCfg();
        System sys(cfg);
        if (with_plan)
            sys.setFaultPlan(FaultPlan{}); // "none": must detach entirely
        auto wl = makeWorkload("hashmap", smallParams());
        wl->install(sys);
        reports[with_plan] = sys.runAndCrashAt(nsToTicks(60000));
        prints[with_plan] = sys.image().fingerprint();
        EXPECT_TRUE(wl->checkRecovery(sys.pmemImage()).consistent());
    }
    EXPECT_EQ(prints[0], prints[1]);
    EXPECT_EQ(reports[0].wpq_blocks, reports[1].wpq_blocks);
    EXPECT_EQ(reports[0].bbpb_blocks, reports[1].bbpb_blocks);
    EXPECT_EQ(reports[0].sb_entries, reports[1].sb_entries);
    EXPECT_EQ(reports[0].drained_bytes, reports[1].drained_bytes);
    EXPECT_EQ(reports[0].sacrificed_blocks, 0u);
    EXPECT_FALSE(reports[0].battery_exhausted);
    EXPECT_TRUE(reports[0].drain_prefix_ok);
}

TEST(System, UndersizedBatterySacrificesAnOldestFirstSuffix)
{
    SystemConfig cfg = smallCfg();
    System sys(cfg);
    // A tiny fraction of the worst-case budget: the drain must run out.
    FaultPlan plan = undersizedBatteryPlan(cfg, 0.02);
    sys.setFaultPlan(plan);
    auto wl = makeWorkload("btree", smallParams());
    wl->install(sys);

    CrashReport rep = sys.runAndCrashAt(nsToTicks(60000));
    EXPECT_TRUE(rep.battery_exhausted);
    EXPECT_GT(rep.sacrificed_blocks, 0u);
    EXPECT_TRUE(rep.drain_prefix_ok); // survivors = oldest-first prefix
    EXPECT_GT(rep.battery_spent_j, 0.0);
    EXPECT_LE(rep.battery_spent_j, plan.battery_j + 1e-18);

    const FaultInjector *inj = sys.faultInjector();
    ASSERT_NE(inj, nullptr);
    // Every sacrificed item is ledgered; items sharing a block share
    // one entry.
    EXPECT_GT(inj->damagedBlocks().size(), 0u);
    EXPECT_LE(inj->damagedBlocks().size(), rep.sacrificed_blocks);

    // Oracle: restoring exactly the sacrificed blocks must restore a
    // consistent structure -- the damage is fully explained.
    BackingStore healed = sys.image().clone();
    inj->repairImage(healed);
    RecoveryResult repaired =
        wl->checkRecovery(PmemImage(healed, sys.addrMap()));
    EXPECT_TRUE(repaired.consistent());
}

TEST(System, RecrashShrinksTheResidualBudgetDeterministically)
{
    auto crashWithRecrash = [](double factor, std::uint64_t *print) {
        SystemConfig cfg = smallCfg();
        System sys(cfg);
        FaultPlan plan = undersizedBatteryPlan(cfg, 0.2);
        plan.recrash_after_blocks = 6;
        plan.recrash_budget_factor = factor;
        sys.setFaultPlan(plan);
        auto wl = makeWorkload("skiplist", smallParams());
        wl->install(sys);
        CrashReport rep = sys.runAndCrashAt(nsToTicks(60000));
        *print = sys.image().fingerprint();
        return rep;
    };
    CrashReport reports[2];
    std::uint64_t prints[2];
    for (int run = 0; run < 2; ++run)
        reports[run] = crashWithRecrash(0.25, &prints[run]);
    EXPECT_EQ(reports[0].recrashes, 1u);
    EXPECT_TRUE(reports[0].drain_prefix_ok);
    // Double crash is exactly repeatable: same report, same image.
    EXPECT_EQ(prints[0], prints[1]);
    EXPECT_EQ(reports[0].sacrificed_blocks, reports[1].sacrificed_blocks);
    EXPECT_EQ(reports[0].wpq_blocks, reports[1].wpq_blocks);
    EXPECT_EQ(reports[0].bbpb_blocks, reports[1].bbpb_blocks);
    EXPECT_DOUBLE_EQ(reports[0].battery_spent_j,
                     reports[1].battery_spent_j);

    // A zero factor leaves no residual: the drain stops at exactly the
    // re-crash point, keeping the items it already drained and their
    // energy, and the battery reads as exhausted.
    std::uint64_t print = 0;
    CrashReport zero = crashWithRecrash(0.0, &print);
    EXPECT_EQ(zero.recrashes, 1u);
    EXPECT_TRUE(zero.battery_exhausted);
    EXPECT_TRUE(zero.drain_prefix_ok);
    EXPECT_EQ(zero.wpq_blocks + zero.bbpb_blocks + zero.sb_entries, 6u);
    EXPECT_GT(zero.sacrificed_blocks, 0u);
    EXPECT_GT(zero.battery_spent_j, 0.0);
}

TEST(System, SampledInvariantCheckingRunsCleanAcrossModes)
{
    for (PersistMode mode :
         {PersistMode::BbbMemSide, PersistMode::BbbProcSide,
          PersistMode::Eadr}) {
        SystemConfig cfg = smallCfg(mode);
        cfg.check_invariants = true;
        cfg.invariant_check_cycles = 2000;
        System sys(cfg);
        auto wl = makeWorkload("ctree", smallParams());
        wl->install(sys);
        // Sampled checks run during execution and once at crash time;
        // any violation panics and fails the test.
        sys.runAndCrashAt(nsToTicks(40000));
    }
}

TEST(System, MediaFaultsDuringRunLeaveOnlyExplainedDamage)
{
    SystemConfig cfg = smallCfg();
    System sys(cfg);
    FaultPlan plan;
    plan.media_fail_p = 0.2;
    plan.media_retries = 1;
    plan.fault_seed = 7;
    sys.setFaultPlan(plan);
    auto wl = makeWorkload("hashmap", smallParams());
    wl->install(sys);
    CrashReport rep = sys.runAndCrashAt(nsToTicks(60000));
    (void)rep;

    const FaultInjector *inj = sys.faultInjector();
    ASSERT_NE(inj, nullptr);
    EXPECT_GT(sys.stats().lookup("media", "torn_programs") +
                  sys.stats().lookup("nvmm", "media_retry_writes"),
              0u)
        << "plan injected nothing; raise media_fail_p or the window";

    BackingStore healed = sys.image().clone();
    inj->repairImage(healed);
    EXPECT_TRUE(
        wl->checkRecovery(PmemImage(healed, sys.addrMap())).consistent());
}

TEST(System, EveryBlockReachesMediaThroughTheController)
{
    // The controller is the only NVMM writer, so each write fact is
    // counted once: every block it commits (runtime or crash drain) is
    // one media demand program, crash-drain retries join the runtime
    // ones, and a crashed machine's flush-fair count is what reached
    // media.
    for (PersistMode mode : safePersistModes()) {
        for (MediaKind kind : {MediaKind::Direct, MediaKind::Ftl}) {
            for (const NamedFaultPlan &np : faultPlanPresets()) {
                SCOPED_TRACE(std::string(persistModeName(mode)) + " " +
                             mediaKindName(kind) + " " + np.name);
                SystemConfig cfg = smallCfg(mode);
                cfg.media.kind = kind;
                System sys(cfg);
                sys.setFaultPlan(np.plan);
                auto wl = makeWorkload("hashmap", smallParams());
                wl->install(sys);
                sys.runUntil(nsToTicks(60000));
                std::uint64_t runtime_retries =
                    sys.stats().lookup("nvmm", "media_retry_writes");
                CrashReport rep = sys.crashNow();

                MetricSnapshot m = sys.snapshotMetrics();
                EXPECT_EQ(m.count("nvmm.media_writes"),
                          m.count("media.demand_programs"));
                EXPECT_EQ(m.count("nvmm.media_retry_writes"),
                          runtime_retries + rep.media_retries);
                EXPECT_EQ(m.count("system.nvmm_writes_effective"),
                          m.count("nvmm.media_writes"));
            }
        }
    }
}
