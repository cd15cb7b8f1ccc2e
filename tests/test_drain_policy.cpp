/**
 * @file
 * Tests for the drain-policy variants (Section III-F future work) and the
 * Section III-C store-buffer battery requirement.
 */

#include <gtest/gtest.h>

#include "api/system.hh"
#include "core/bbpb.hh"
#include "workloads/linkedlist.hh"

using namespace bbb;

namespace
{

struct Rig
{
    SystemConfig cfg;
    EventQueue eq;
    BackingStore store;
    DirectMedia media{store};
    StatRegistry stats;
    MemCtrl nvmm;

    explicit Rig(DrainPolicy policy, unsigned entries = 4)
        : cfg(makeCfg(policy, entries)),
          nvmm("nvmm", cfg.nvmm, eq, media, stats)
    {
    }

    static SystemConfig
    makeCfg(DrainPolicy policy, unsigned entries)
    {
        SystemConfig cfg;
        cfg.num_cores = 1;
        cfg.bbpb.entries = entries;
        cfg.bbpb.drain_threshold = 0.75;
        cfg.bbpb.drain_policy = policy;
        return cfg;
    }
};

BlockData
pattern(unsigned char v)
{
    BlockData d;
    d.bytes.fill(v);
    return d;
}

constexpr Addr kBase = 1_GiB;

Addr
blk(unsigned i)
{
    return kBase + i * kBlockSize;
}

} // namespace

TEST(DrainPolicy, Names)
{
    EXPECT_STREQ(drainPolicyName(DrainPolicy::Fcfs), "fcfs");
    EXPECT_STREQ(drainPolicyName(DrainPolicy::Lrw), "lrw");
    EXPECT_STREQ(drainPolicyName(DrainPolicy::Random), "random");
}

TEST(DrainPolicy, LrwKeepsWriteHotEntry)
{
    Rig rig(DrainPolicy::Lrw);
    MemSideBbpb bbpb(rig.cfg, rig.eq, rig.nvmm, rig.stats);
    bbpb.persistStore(0, blk(0), 8, pattern(1)); // oldest alloc ...
    bbpb.persistStore(0, blk(1), 8, pattern(2));
    bbpb.persistStore(0, blk(0), 8, pattern(3)); // ... but re-written
    bbpb.persistStore(0, blk(2), 8, pattern(4)); // trips threshold (3)
    rig.eq.run();
    // FCFS would drain blk(0); LRW drains blk(1), the coldest writer.
    EXPECT_TRUE(bbpb.holds(0, blk(0)));
    EXPECT_FALSE(bbpb.holds(0, blk(1)));
}

TEST(DrainPolicy, FcfsDrainsOldestAllocationDespiteRewrites)
{
    Rig rig(DrainPolicy::Fcfs);
    MemSideBbpb bbpb(rig.cfg, rig.eq, rig.nvmm, rig.stats);
    bbpb.persistStore(0, blk(0), 8, pattern(1));
    bbpb.persistStore(0, blk(1), 8, pattern(2));
    bbpb.persistStore(0, blk(0), 8, pattern(3));
    bbpb.persistStore(0, blk(2), 8, pattern(4));
    rig.eq.run();
    EXPECT_FALSE(bbpb.holds(0, blk(0)));
    EXPECT_TRUE(bbpb.holds(0, blk(1)));
}

class EveryDrainPolicy : public ::testing::TestWithParam<DrainPolicy>
{
};

TEST_P(EveryDrainPolicy, DrainsNeverLoseData)
{
    Rig rig(GetParam(), 8);
    MemSideBbpb bbpb(rig.cfg, rig.eq, rig.nvmm, rig.stats);
    Rng rng(3);
    // Hammer 32 blocks with random writes; everything must eventually
    // land in media with its newest value.
    std::map<Addr, unsigned char> newest;
    for (int i = 0; i < 400; ++i) {
        Addr b = blk(static_cast<unsigned>(rng.below(32)));
        auto v = static_cast<unsigned char>(rng.below(250) + 1);
        while (!bbpb.canAcceptPersist(0, b))
            rig.eq.step();
        bbpb.persistStore(0, b, 8, pattern(v));
        newest[b] = v;
    }
    // Crash-drain the rest through the controller like the crash
    // engine would: the WPQ first, then the bbPB.
    rig.eq.run();
    unsigned retries = 0;
    for (const auto &[block, data] : rig.nvmm.takeWpqForCrash())
        rig.nvmm.writeThrough(block, data, retries);
    for (const auto &rec : bbpb.crashDrainRecords())
        rig.nvmm.writeThrough(rec.block, rec.data, retries);
    for (const auto &[b, v] : newest) {
        std::uint64_t expect = 0;
        std::memset(&expect, v, 8);
        EXPECT_EQ(rig.store.read64(b), expect)
            << drainPolicyName(GetParam());
    }
}

TEST_P(EveryDrainPolicy, FullSystemWorkloadStaysConsistent)
{
    SystemConfig cfg;
    cfg.num_cores = 2;
    cfg.l1d.size_bytes = 8_KiB;
    cfg.llc.size_bytes = 32_KiB;
    cfg.dram.size_bytes = 64_MiB;
    cfg.nvmm.size_bytes = 64_MiB;
    cfg.mode = PersistMode::BbbMemSide;
    cfg.bbpb.drain_policy = GetParam();

    System sys(cfg);
    WorkloadParams p;
    p.ops_per_thread = 300;
    p.initial_elements = 50;
    LinkedListWorkload list(p);
    list.install(sys);
    sys.runAndCrashAt(nsToTicks(20000));
    RecoveryResult res = list.checkRecovery(sys.pmemImage());
    EXPECT_TRUE(res.consistent()) << drainPolicyName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, EveryDrainPolicy,
                         ::testing::Values(DrainPolicy::Fcfs,
                                           DrainPolicy::Lrw,
                                           DrainPolicy::Random),
                         [](const auto &param_info) {
                             return drainPolicyName(param_info.param);
                         });

// ---------------------------------------------------------------------
// Section III-C: relaxed consistency needs a battery-backed SB.
// ---------------------------------------------------------------------

namespace
{

/**
 * Sequential-key linked list under a relaxed-consistency BBB machine with
 * a tiny bbPB (so the SB head blocks and younger stores retire out of
 * order). Returns true if the persisted image violates per-thread program
 * order (a reachable key gap).
 */
bool
orderViolatedAtCrash(bool battery_backed_sb, Tick crash, std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.num_cores = 1;
    cfg.l1d.size_bytes = 8_KiB;
    cfg.llc.size_bytes = 32_KiB;
    cfg.dram.size_bytes = 64_MiB;
    cfg.nvmm.size_bytes = 64_MiB;
    cfg.mode = PersistMode::BbbMemSide;
    cfg.relaxed_consistency = true; // out-of-order SB drain
    cfg.sb_battery_backed = battery_backed_sb;
    cfg.bbpb.entries = 1; // head blocks constantly
    cfg.seed = seed;

    System sys(cfg);
    sys.onThread(0, [&](ThreadContext &tc) {
        TcAccessor m(tc);
        Addr root = sys.heap().rootAddr(0);
        for (std::uint64_t i = 1; i <= 4000; ++i)
            LinkedListWorkload::appendNode(m, sys.heap(), 0, root, i);
    });
    sys.runAndCrashAt(crash);

    PmemImage img = sys.pmemImage();
    Addr node = img.read64(sys.heap().rootAddr(0));
    std::uint64_t prev = 0;
    bool first = true;
    while (node != 0 && img.validPersistent(node)) {
        std::uint64_t key = img.read64(node);
        if (img.read64(node + 8) != nodeChecksum(key))
            return true; // torn payload is also an ordering violation
        if (!first && key + 1 != prev)
            return true; // gap: younger persisted, older lost
        prev = key;
        first = false;
        node = img.read64(node + 16);
    }
    return false;
}

} // namespace

TEST(SbBattery, BatteryBackedSbPreservesProgramOrder)
{
    for (int i = 1; i <= 6; ++i) {
        EXPECT_FALSE(
            orderViolatedAtCrash(true, nsToTicks(9000ull * i), 11u * i))
            << "crash point " << i;
    }
}

TEST(SbBattery, VolatileSbEventuallyViolatesProgramOrder)
{
    bool violated = false;
    for (int i = 1; i <= 12 && !violated; ++i)
        violated = orderViolatedAtCrash(false, nsToTicks(7500ull * i),
                                        11u * i);
    EXPECT_TRUE(violated)
        << "expected a Section III-C ordering hazard with a volatile SB";
}
