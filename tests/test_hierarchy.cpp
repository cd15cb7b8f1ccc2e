/**
 * @file
 * Unit tests for the cache hierarchy: MESI transitions (the Table II
 * cases), data movement, inclusion, writebacks, flushes, and the
 * persistency hooks — observed through a recording backend.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "cache/hierarchy.hh"
#include "core/bbpb.hh"
#include "mem/addr_map.hh"
#include "mem/backing_store.hh"
#include "mem/mem_ctrl.hh"
#include "sim/config.hh"

using namespace bbb;

namespace
{

/** Backend that records every hook call and can simulate a bbPB. */
class RecordingBackend : public PersistencyBackend
{
  public:
    bool accept = true;
    bool skip_writeback = false;
    std::vector<std::pair<CoreId, Addr>> persists;
    std::vector<std::pair<CoreId, Addr>> invalidates;
    std::vector<Addr> forced;
    std::set<std::pair<CoreId, Addr>> held;

    bool canAcceptPersist(CoreId, Addr) override { return accept; }

    void
    persistStore(CoreId c, Addr addr, unsigned, const BlockData &) override
    {
        persists.emplace_back(c, blockAlign(addr));
        held.insert({c, blockAlign(addr)});
    }

    void
    onInvalidateForWrite(CoreId holder, Addr block) override
    {
        invalidates.emplace_back(holder, blockAlign(block));
        held.erase({holder, blockAlign(block)});
    }

    void
    onForcedDrain(Addr block, const BlockData &) override
    {
        forced.push_back(blockAlign(block));
        for (auto it = held.begin(); it != held.end();) {
            if (it->second == blockAlign(block))
                it = held.erase(it);
            else
                ++it;
        }
    }

    bool skipLlcWriteback(Addr) const override { return skip_writeback; }

    bool
    holds(CoreId c, Addr block) const override
    {
        return held.count({c, blockAlign(block)}) != 0;
    }

    CoreId
    holder(Addr block) const override
    {
        for (const auto &kv : held) {
            if (kv.second == blockAlign(block))
                return kv.first;
        }
        return kNoCore;
    }

    void
    forEachHeld(
        const std::function<void(CoreId, Addr)> &fn) const override
    {
        for (const auto &kv : held)
            fn(kv.first, kv.second);
    }

    std::size_t occupancy() const override { return held.size(); }
    void crashDrain(const PersistSink &) override {}
};

struct Rig
{
    SystemConfig cfg;
    AddrMap map;
    EventQueue eq;
    BackingStore store;
    DirectMedia dram_media{store};
    DirectMedia nvmm_media{store};
    StatRegistry stats;
    MemCtrl dram;
    MemCtrl nvmm;
    CacheHierarchy hier;
    RecordingBackend backend;

    explicit Rig(unsigned cores = 2)
        : cfg(makeCfg(cores)), map(AddrMap::fromConfig(cfg)),
          dram("dram", cfg.dram, eq, dram_media, stats),
          nvmm("nvmm", cfg.nvmm, eq, nvmm_media, stats),
          hier(cfg, map, eq, dram, nvmm, stats)
    {
        hier.setBackend(&backend);
    }

    static SystemConfig
    makeCfg(unsigned cores)
    {
        SystemConfig cfg;
        cfg.num_cores = cores;
        cfg.l1d.size_bytes = 4_KiB;
        cfg.l1d.assoc = 4;
        cfg.llc.size_bytes = 16_KiB;
        cfg.llc.assoc = 4;
        cfg.dram.size_bytes = 64_MiB;
        cfg.nvmm.size_bytes = 64_MiB;
        return cfg;
    }

    Addr
    persist(unsigned i = 0) const
    {
        return map.persistBase() + i * kBlockSize;
    }

    Addr
    volatileAddr(unsigned i = 0) const
    {
        return 4096 + i * kBlockSize;
    }

    std::uint64_t
    load64(CoreId c, Addr a)
    {
        std::uint64_t v = 0;
        hier.load(c, a, 8, &v);
        return v;
    }

    AccessResult
    store64(CoreId c, Addr a, std::uint64_t v)
    {
        return hier.store(c, a, 8, &v);
    }
};

} // namespace

TEST(Hierarchy, StoreThenLoadSameCore)
{
    Rig rig;
    rig.store64(0, rig.volatileAddr(), 77);
    EXPECT_EQ(rig.load64(0, rig.volatileAddr()), 77u);
    rig.hier.checkInvariants();
}

TEST(Hierarchy, StoreVisibleToOtherCore)
{
    Rig rig;
    rig.store64(0, rig.volatileAddr(), 88);
    EXPECT_EQ(rig.load64(1, rig.volatileAddr()), 88u);
    rig.hier.checkInvariants();
}

TEST(Hierarchy, LoadHitIsL1Latency)
{
    Rig rig;
    rig.load64(0, rig.volatileAddr()); // warm
    std::uint64_t v;
    AccessResult r = rig.hier.load(0, rig.volatileAddr(), 8, &v);
    EXPECT_EQ(r.latency, rig.cfg.cycles(rig.cfg.l1d.latency_cycles));
}

TEST(Hierarchy, ColdLoadPaysMemoryLatency)
{
    Rig rig;
    std::uint64_t v;
    AccessResult r = rig.hier.load(0, rig.persist(), 8, &v);
    EXPECT_GE(r.latency, rig.cfg.nvmm.read_latency);
}

TEST(Hierarchy, WriteMissToRemoteModified_Fig6a)
{
    // Table II row: remote invalidation of an M block held in a bbPB.
    Rig rig;
    rig.store64(0, rig.persist(), 1); // core 0: M + bbPB entry
    ASSERT_TRUE(rig.backend.holds(0, rig.persist()));

    rig.store64(1, rig.persist(), 2); // core 1 RdX
    // The entry moved without draining: invalidate hook fired for core 0,
    // then core 1's persistStore took ownership.
    ASSERT_EQ(rig.backend.invalidates.size(), 1u);
    EXPECT_EQ(rig.backend.invalidates[0],
              (std::pair<CoreId, Addr>{0u, rig.persist()}));
    EXPECT_FALSE(rig.backend.holds(0, rig.persist()));
    EXPECT_TRUE(rig.backend.holds(1, rig.persist()));
    EXPECT_TRUE(rig.backend.forced.empty());
    EXPECT_EQ(rig.load64(0, rig.persist()), 2u);
    rig.hier.checkInvariants();
}

TEST(Hierarchy, UpgradeFromShared_Fig6b)
{
    // Table II row: upgrade invalidates the S copy and removes the bbPB
    // entry without draining.
    Rig rig;
    rig.store64(0, rig.persist(), 1); // core 0 M + bbPB
    rig.load64(1, rig.persist());     // both cores S (downgrade core 0)
    rig.store64(1, rig.persist(), 2); // core 1 upgrade
    EXPECT_FALSE(rig.backend.holds(0, rig.persist()));
    EXPECT_TRUE(rig.backend.holds(1, rig.persist()));
    EXPECT_TRUE(rig.backend.forced.empty());
    EXPECT_EQ(rig.load64(0, rig.persist()), 2u);
    rig.hier.checkInvariants();
}

TEST(Hierarchy, InterventionKeepsBbpbEntry_Fig6c)
{
    // Table II row: a remote read downgrades M->S but the block *stays*
    // in the original bbPB and nothing drains.
    Rig rig;
    rig.store64(0, rig.persist(), 42);
    rig.load64(1, rig.persist());
    EXPECT_TRUE(rig.backend.holds(0, rig.persist()));
    EXPECT_TRUE(rig.backend.invalidates.empty());
    EXPECT_TRUE(rig.backend.forced.empty());
    EXPECT_EQ(rig.load64(1, rig.persist()), 42u);
    rig.hier.checkInvariants();
}

TEST(Hierarchy, PersistingStoreCallsBackendOnce)
{
    Rig rig;
    rig.store64(0, rig.persist(), 5);
    ASSERT_EQ(rig.backend.persists.size(), 1u);
    EXPECT_EQ(rig.backend.persists[0],
              (std::pair<CoreId, Addr>{0u, rig.persist()}));
}

TEST(Hierarchy, VolatileStoreSkipsBackend)
{
    Rig rig;
    rig.store64(0, rig.volatileAddr(), 5);
    EXPECT_TRUE(rig.backend.persists.empty());
}

TEST(Hierarchy, RejectedPersistLeavesNoTrace)
{
    Rig rig;
    rig.backend.accept = false;
    AccessResult r = rig.store64(0, rig.persist(), 5);
    EXPECT_EQ(r.status, StoreStatus::RetryPersist);
    EXPECT_TRUE(rig.backend.persists.empty());
    // No state was changed: the value is not visible.
    EXPECT_EQ(rig.load64(0, rig.persist()), 0u);
    rig.hier.checkInvariants();
}

TEST(Hierarchy, LlcEvictionForcesDrainOfHeldBlock)
{
    Rig rig(1);
    rig.store64(0, rig.persist(0), 1);
    ASSERT_TRUE(rig.backend.holds(0, rig.persist(0)));
    // Evict the LLC set by filling it with conflicting blocks.
    std::uint64_t sets = rig.cfg.llc.size_bytes /
                         (kBlockSize * rig.cfg.llc.assoc);
    for (unsigned i = 1; i <= rig.cfg.llc.assoc; ++i)
        rig.load64(0, rig.persist(0) + i * sets * kBlockSize);
    EXPECT_FALSE(rig.backend.holds(0, rig.persist(0)));
    ASSERT_GE(rig.backend.forced.size(), 1u);
    EXPECT_EQ(rig.backend.forced[0], rig.persist(0));
    rig.hier.checkInvariants();
}

TEST(Hierarchy, SkippedWritebackDropsDirtyPersistentVictim)
{
    // Use the real memory-side bbPB so the forced drain actually writes:
    // exactly one WPQ insert must happen (the drain), with the LLC
    // writeback skipped.
    SystemConfig cfg = Rig::makeCfg(1);
    cfg.mode = PersistMode::BbbMemSide;
    AddrMap map = AddrMap::fromConfig(cfg);
    EventQueue eq;
    BackingStore store;
    DirectMedia dram_media(store);
    DirectMedia nvmm_media(store);
    StatRegistry stats;
    MemCtrl dram("dram", cfg.dram, eq, dram_media, stats);
    MemCtrl nvmm("nvmm", cfg.nvmm, eq, nvmm_media, stats);
    CacheHierarchy hier(cfg, map, eq, dram, nvmm, stats);
    MemSideBbpb bbpb(cfg, eq, nvmm, stats);
    hier.setBackend(&bbpb);

    Addr p = map.persistBase();
    std::uint64_t v = 0x5157;
    hier.store(0, p, 8, &v);
    ASSERT_TRUE(bbpb.holds(0, p));

    std::uint64_t sets = cfg.llc.size_bytes / (kBlockSize * cfg.llc.assoc);
    for (unsigned i = 1; i <= cfg.llc.assoc; ++i) {
        std::uint64_t out;
        hier.load(0, p + i * sets * kBlockSize, 8, &out);
    }
    EXPECT_FALSE(bbpb.holds(0, p));
    EXPECT_EQ(stats.lookup("nvmm", "wpq_inserts"), 1u);
    EXPECT_EQ(stats.lookup("hierarchy", "skipped_writebacks"), 1u);
    eq.run();
    EXPECT_EQ(store.read64(p), 0x5157u);
}

TEST(Hierarchy, UnskippedWritebackReachesMemory)
{
    Rig rig(1);
    rig.backend.skip_writeback = false; // eADR/ADR behaviour
    rig.store64(0, rig.persist(0), 0x77);
    std::uint64_t sets = rig.cfg.llc.size_bytes /
                         (kBlockSize * rig.cfg.llc.assoc);
    for (unsigned i = 1; i <= rig.cfg.llc.assoc; ++i)
        rig.load64(0, rig.persist(0) + i * sets * kBlockSize);
    rig.eq.run();
    EXPECT_EQ(rig.store.read64(rig.persist(0)), 0x77u);
}

TEST(Hierarchy, L1EvictionWritesBackToLlcNotMemory)
{
    Rig rig(1);
    rig.store64(0, rig.volatileAddr(0), 9);
    // Conflict-evict from the 4-way L1 set.
    std::uint64_t l1_sets = rig.cfg.l1d.size_bytes /
                            (kBlockSize * rig.cfg.l1d.assoc);
    for (unsigned i = 1; i <= rig.cfg.l1d.assoc; ++i)
        rig.load64(0, rig.volatileAddr(0) + i * l1_sets * kBlockSize);
    EXPECT_GE(rig.stats.lookup("hierarchy", "l1_writebacks"), 1u);
    // Value still architecturally visible through the LLC.
    EXPECT_EQ(rig.load64(0, rig.volatileAddr(0)), 9u);
    rig.hier.checkInvariants();
}

TEST(Hierarchy, FlushPushesDirtyBlockToWpq)
{
    Rig rig(1);
    rig.store64(0, rig.persist(), 0xfeed);
    Tick lat = rig.hier.flushBlock(0, rig.persist());
    EXPECT_GT(lat, 0u);
    rig.eq.run();
    EXPECT_EQ(rig.store.read64(rig.persist()), 0xfeedu);
}

TEST(Hierarchy, FlushOfCleanBlockIsCheapNoop)
{
    Rig rig(1);
    std::uint64_t before = rig.stats.lookup("nvmm", "wpq_inserts");
    Tick lat = rig.hier.flushBlock(0, rig.persist(7));
    EXPECT_EQ(rig.stats.lookup("nvmm", "wpq_inserts"), before);
    EXPECT_LE(lat, rig.cfg.cycles(rig.cfg.llc.latency_cycles));
}

TEST(Hierarchy, PeekSeesFreshestCopy)
{
    Rig rig;
    rig.store64(0, rig.persist(), 123); // M in core 0's L1
    std::uint64_t v = 0;
    rig.hier.peek(rig.persist(), 8, &v);
    EXPECT_EQ(v, 123u);
}

TEST(Hierarchy, CollectDirtyNvmmFindsMAndLlcDirty)
{
    Rig rig;
    rig.store64(0, rig.persist(0), 1); // M in L1
    rig.store64(0, rig.persist(1), 2);
    std::uint64_t from_l1 = 0;
    auto dirty = rig.hier.collectDirtyNvmm(&from_l1);
    EXPECT_EQ(dirty.size(), 2u);
    EXPECT_EQ(from_l1, 2u);
}

TEST(Hierarchy, CollectDirtyIgnoresDram)
{
    Rig rig;
    rig.store64(0, rig.volatileAddr(), 1);
    auto dirty = rig.hier.collectDirtyNvmm();
    EXPECT_TRUE(dirty.empty());
}

TEST(Hierarchy, DirtyStatsCountLevels)
{
    Rig rig;
    rig.store64(0, rig.persist(0), 1);
    rig.load64(0, rig.persist(1));
    DirtyStats s = rig.hier.dirtyStats();
    EXPECT_EQ(s.l1_dirty_blocks, 1u);
    EXPECT_EQ(s.l1_valid_blocks, 2u);
    EXPECT_EQ(s.llc_valid_blocks, 2u);
    EXPECT_EQ(s.llc_dirty_blocks, 1u); // via the M owner
}

TEST(Hierarchy, CountDirtyNvmmMatchesCollect)
{
    Rig rig;
    rig.store64(0, rig.persist(0), 1); // M in L1
    rig.store64(0, rig.persist(1), 2);
    rig.load64(0, rig.persist(2));     // clean
    rig.store64(0, rig.volatileAddr(), 3);
    EXPECT_EQ(rig.hier.countDirtyNvmm(), rig.hier.collectDirtyNvmm().size());
    EXPECT_EQ(rig.hier.countDirtyNvmm(), 2u);
}
TEST(Hierarchy, ManyCoresPingPongStaysCoherent)
{
    Rig rig(4);
    Addr a = rig.persist();
    for (std::uint64_t round = 0; round < 40; ++round) {
        CoreId c = round % 4;
        rig.store64(c, a, round);
        for (CoreId r = 0; r < 4; ++r)
            EXPECT_EQ(rig.load64(r, a), round);
        rig.hier.checkInvariants();
    }
    // Block ended in exactly one bbPB (Invariant 4).
    unsigned holders = 0;
    for (CoreId c = 0; c < 4; ++c)
        holders += rig.backend.holds(c, a);
    EXPECT_EQ(holders, 1u);
}

TEST(Hierarchy, PartialStoresMergeWithinBlock)
{
    Rig rig(1);
    Addr a = rig.volatileAddr();
    std::uint32_t lo = 0x11111111, hi = 0x22222222;
    rig.hier.store(0, a, 4, &lo);
    rig.hier.store(0, a + 4, 4, &hi);
    EXPECT_EQ(rig.load64(0, a), 0x2222222211111111ull);
}

TEST(HierarchyDeath, CrossBlockAccessPanics)
{
    Rig rig(1);
    std::uint64_t v = 0;
    EXPECT_DEATH(rig.hier.load(0, 60, 8, &v), "crosses block");
    EXPECT_DEATH(rig.hier.store(0, 60, 8, &v), "crosses block");
}
