/**
 * @file
 * Unit tests for the battery-backed persist buffers: allocation,
 * coalescing, FCFS threshold draining, migration, forced drains, crash
 * drains, and the processor-side ordering rules.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "core/bbpb.hh"
#include "mem/backing_store.hh"
#include "sim/event_queue.hh"

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

    explicit Rig(unsigned entries = 8, double threshold = 0.75,
                 unsigned wpq_entries = SystemConfig{}.nvmm.wpq_entries)
        : cfg(makeCfg(entries, threshold, wpq_entries)),
          nvmm("nvmm", cfg.nvmm, eq, media, stats)
    {
    }

    static SystemConfig
    makeCfg(unsigned entries, double threshold, unsigned wpq_entries)
    {
        SystemConfig cfg;
        cfg.num_cores = 2;
        cfg.bbpb.entries = entries;
        cfg.bbpb.drain_threshold = threshold;
        cfg.nvmm.wpq_entries = wpq_entries;
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

/** Blocks pending in the rig's WPQ, oldest first (empties the queue). */
std::vector<Addr>
wpqBlocks(Rig &rig)
{
    std::vector<Addr> out;
    for (const auto &[block, data] : rig.nvmm.takeWpqForCrash())
        out.push_back(block);
    return out;
}

} // namespace

TEST(MemSideBbpb, AllocateUntilFull)
{
    Rig rig(4, 1.0); // threshold 100%: no draining below full
    MemSideBbpb bbpb(rig.cfg, rig.eq, rig.nvmm, rig.stats);
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_TRUE(bbpb.canAcceptPersist(0, blk(i)));
        bbpb.persistStore(0, blk(i), 8, pattern(1));
    }
    EXPECT_EQ(bbpb.coreOccupancy(0), 4u);
    EXPECT_FALSE(bbpb.canAcceptPersist(0, blk(9)));
    // ...but a resident block can still coalesce.
    EXPECT_TRUE(bbpb.canAcceptPersist(0, blk(2)));
}

TEST(MemSideBbpb, BuffersArePerCore)
{
    Rig rig(2, 1.0);
    MemSideBbpb bbpb(rig.cfg, rig.eq, rig.nvmm, rig.stats);
    bbpb.persistStore(0, blk(0), 8, pattern(1));
    bbpb.persistStore(0, blk(1), 8, pattern(1));
    EXPECT_FALSE(bbpb.canAcceptPersist(0, blk(2)));
    EXPECT_TRUE(bbpb.canAcceptPersist(1, blk(2)));
    EXPECT_FALSE(bbpb.holds(1, blk(0)));
}

TEST(MemSideBbpb, CoalescingUpdatesDataWithoutNewEntry)
{
    Rig rig(4, 1.0);
    MemSideBbpb bbpb(rig.cfg, rig.eq, rig.nvmm, rig.stats);
    bbpb.persistStore(0, blk(0), 8, pattern(1));
    bbpb.persistStore(0, blk(0) + 8, 8, pattern(7));
    EXPECT_EQ(bbpb.coreOccupancy(0), 1u);
    EXPECT_EQ(bbpb.stats().coalesces.value(), 1u);
    auto records = bbpb.crashDrainRecords();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].data.bytes[0], 7); // newest full-line data
}

TEST(MemSideBbpb, ThresholdTriggersDrainToWpqAndMedia)
{
    Rig rig(4, 0.75); // threshold = ceil(3) = 3 entries
    MemSideBbpb bbpb(rig.cfg, rig.eq, rig.nvmm, rig.stats);
    bbpb.persistStore(0, blk(0), 8, pattern(1));
    bbpb.persistStore(0, blk(1), 8, pattern(2));
    EXPECT_EQ(bbpb.stats().drains.value(), 0u);
    bbpb.persistStore(0, blk(2), 8, pattern(3)); // hits threshold
    rig.eq.run();
    // Drains until below threshold: 3 -> 2 entries (one drain).
    EXPECT_EQ(bbpb.stats().drains.value(), 1u);
    EXPECT_EQ(bbpb.coreOccupancy(0), 2u);
    EXPECT_EQ(rig.store.read64(blk(0)), 0x0101010101010101ull);
}

TEST(MemSideBbpb, DrainIsFcfsOldestFirst)
{
    Rig rig(4, 0.75);
    MemSideBbpb bbpb(rig.cfg, rig.eq, rig.nvmm, rig.stats);
    bbpb.persistStore(0, blk(5), 8, pattern(5)); // oldest
    bbpb.persistStore(0, blk(1), 8, pattern(1));
    bbpb.persistStore(0, blk(3), 8, pattern(3));
    rig.eq.run();
    EXPECT_FALSE(bbpb.holds(0, blk(5))); // drained first
    EXPECT_TRUE(bbpb.holds(0, blk(1)));
    EXPECT_TRUE(bbpb.holds(0, blk(3)));
}

TEST(MemSideBbpb, CoalescingDoesNotRefreshFcfsAge)
{
    Rig rig(4, 0.75);
    MemSideBbpb bbpb(rig.cfg, rig.eq, rig.nvmm, rig.stats);
    bbpb.persistStore(0, blk(0), 8, pattern(1));
    bbpb.persistStore(0, blk(1), 8, pattern(2));
    bbpb.persistStore(0, blk(0), 8, pattern(9)); // coalesce, still oldest
    bbpb.persistStore(0, blk(2), 8, pattern(3));
    rig.eq.run();
    EXPECT_FALSE(bbpb.holds(0, blk(0))); // oldest drained, newest data
    EXPECT_EQ(rig.store.read64(blk(0)), 0x0909090909090909ull);
}

TEST(MemSideBbpb, MigrationRemovesWithoutWriting)
{
    Rig rig(4, 1.0);
    MemSideBbpb bbpb(rig.cfg, rig.eq, rig.nvmm, rig.stats);
    bbpb.persistStore(0, blk(0), 8, pattern(1));
    bbpb.onInvalidateForWrite(0, blk(0));
    EXPECT_FALSE(bbpb.holds(0, blk(0)));
    EXPECT_EQ(bbpb.stats().migrations.value(), 1u);
    rig.eq.run();
    EXPECT_EQ(rig.nvmm.mediaWrites(), 0u);
    EXPECT_EQ(rig.store.read64(blk(0)), 0u);
}

TEST(MemSideBbpb, MigrationOfAbsentBlockIsNoop)
{
    Rig rig(4, 1.0);
    MemSideBbpb bbpb(rig.cfg, rig.eq, rig.nvmm, rig.stats);
    bbpb.onInvalidateForWrite(0, blk(0));
    EXPECT_EQ(bbpb.stats().migrations.value(), 0u);
}

TEST(MemSideBbpb, ForcedDrainWritesFreshDataSynchronously)
{
    Rig rig(4, 1.0);
    MemSideBbpb bbpb(rig.cfg, rig.eq, rig.nvmm, rig.stats);
    bbpb.persistStore(1, blk(0), 8, pattern(1));
    bbpb.onForcedDrain(blk(0), pattern(8));
    EXPECT_FALSE(bbpb.holds(1, blk(0)));
    EXPECT_EQ(bbpb.stats().forced_drains.value(), 1u);
    rig.eq.run();
    EXPECT_EQ(rig.store.read64(blk(0)), 0x0808080808080808ull);
}

TEST(MemSideBbpb, CrashDrainReturnsAllEntriesAndClears)
{
    Rig rig(8, 1.0);
    MemSideBbpb bbpb(rig.cfg, rig.eq, rig.nvmm, rig.stats);
    bbpb.persistStore(0, blk(0), 8, pattern(1));
    bbpb.persistStore(1, blk(1), 8, pattern(2));
    bbpb.persistStore(1, blk(2), 8, pattern(3));
    auto records = bbpb.crashDrainRecords();
    EXPECT_EQ(records.size(), 3u);
    EXPECT_EQ(bbpb.occupancy(), 0u);
    EXPECT_EQ(bbpb.stats().crash_drained.value(), 3u);
}

TEST(MemSideBbpb, SingleEntryBufferDrainsImmediately)
{
    Rig rig(1, 0.75); // threshold clamps to 1
    MemSideBbpb bbpb(rig.cfg, rig.eq, rig.nvmm, rig.stats);
    EXPECT_EQ(bbpb.drainThresholdEntries(), 1u);
    bbpb.persistStore(0, blk(0), 8, pattern(1));
    rig.eq.run();
    EXPECT_EQ(bbpb.coreOccupancy(0), 0u);
    EXPECT_EQ(rig.nvmm.mediaWrites(), 1u);
}

TEST(MemSideBbpb, ForceDrainOldestTakesGlobalAllocationOrder)
{
    Rig rig(4, 1.0);
    MemSideBbpb bbpb(rig.cfg, rig.eq, rig.nvmm, rig.stats);
    bbpb.persistStore(1, blk(0), 8, pattern(1)); // globally oldest
    bbpb.persistStore(0, blk(1), 8, pattern(2));
    bbpb.persistStore(1, blk(2), 8, pattern(3));
    bbpb.persistStore(0, blk(3), 8, pattern(4));
    bbpb.persistStore(1, blk(0), 8, pattern(5)); // coalesce: age kept
    EXPECT_EQ(bbpb.forceDrainOldest(3), 3u);
    EXPECT_EQ(wpqBlocks(rig), (std::vector<Addr>{blk(0), blk(1), blk(2)}));
    EXPECT_TRUE(bbpb.holds(0, blk(3)));
    EXPECT_EQ(bbpb.occupancy(), 1u);
    EXPECT_EQ(bbpb.stats().proactive_drains.value(), 3u);
}

TEST(MemSideBbpb, ForceDrainOldestStopsAtFullWpq)
{
    Rig rig(4, 1.0, 2);
    MemSideBbpb bbpb(rig.cfg, rig.eq, rig.nvmm, rig.stats);
    for (unsigned i = 0; i < 4; ++i)
        bbpb.persistStore(i % 2, blk(i), 8, pattern(1));
    EXPECT_EQ(bbpb.forceDrainOldest(4), 2u);
    EXPECT_EQ(bbpb.occupancy(), 2u);
    EXPECT_EQ(wpqBlocks(rig), (std::vector<Addr>{blk(0), blk(1)}));
}

TEST(MemSideBbpb, LowPowerStillCoalescesButRefusesNewBlocks)
{
    Rig rig(4, 1.0);
    MemSideBbpb bbpb(rig.cfg, rig.eq, rig.nvmm, rig.stats);
    bbpb.persistStore(0, blk(0), 8, pattern(1));
    bbpb.setLowPower(true);
    EXPECT_TRUE(bbpb.canAcceptPersist(0, blk(0)));  // coalesces
    EXPECT_FALSE(bbpb.canAcceptPersist(0, blk(1))); // new dirty block
    EXPECT_FALSE(bbpb.canAcceptPersist(1, blk(0))); // not core 1's entry
    bbpb.setLowPower(false);
    EXPECT_TRUE(bbpb.canAcceptPersist(0, blk(1)));
}

// ---------------------------------------------------------------------
// Processor-side organisation
// ---------------------------------------------------------------------

TEST(ProcSideBbpb, NoCoalescingByDefault)
{
    Rig rig(8, 1.0);
    ProcSideBbpb bbpb(rig.cfg, rig.eq, rig.nvmm, rig.stats);
    bbpb.persistStore(0, blk(0), 8, pattern(1));
    bbpb.persistStore(0, blk(0) + 8, 8, pattern(2)); // same block, again
    EXPECT_EQ(bbpb.coreOccupancy(0), 2u); // two ordered records
    EXPECT_EQ(bbpb.stats().coalesces.value(), 0u);
}

TEST(ProcSideBbpb, InvalidationDrainsOrderedPrefix)
{
    Rig rig(8, 1.0);
    ProcSideBbpb bbpb(rig.cfg, rig.eq, rig.nvmm, rig.stats);
    bbpb.persistStore(0, blk(0), 8, pattern(1)); // older
    bbpb.persistStore(0, blk(1), 8, pattern(2)); // the migrating block
    bbpb.persistStore(0, blk(2), 8, pattern(3)); // younger, stays
    bbpb.onInvalidateForWrite(0, blk(1));
    // Records up to and including blk(1) drained in order; blk(2) remains.
    EXPECT_FALSE(bbpb.holds(0, blk(0)));
    EXPECT_FALSE(bbpb.holds(0, blk(1)));
    EXPECT_TRUE(bbpb.holds(0, blk(2)));
    rig.eq.run();
    EXPECT_EQ(rig.store.read64(blk(0)), 0x0101010101010101ull);
    EXPECT_EQ(rig.store.read64(blk(1)), 0x0202020202020202ull);
}

TEST(ProcSideBbpb, ThresholdDrainsInProgramOrder)
{
    Rig rig(4, 0.75);
    ProcSideBbpb bbpb(rig.cfg, rig.eq, rig.nvmm, rig.stats);
    bbpb.persistStore(0, blk(3), 8, pattern(3));
    bbpb.persistStore(0, blk(1), 8, pattern(1));
    bbpb.persistStore(0, blk(2), 8, pattern(2));
    rig.eq.run();
    EXPECT_FALSE(bbpb.holds(0, blk(3))); // first record drained first
    EXPECT_TRUE(bbpb.holds(0, blk(2)));
}

TEST(ProcSideBbpb, CrashDrainPreservesProgramOrder)
{
    Rig rig(8, 1.0);
    ProcSideBbpb bbpb(rig.cfg, rig.eq, rig.nvmm, rig.stats);
    bbpb.persistStore(0, blk(2), 8, pattern(1));
    bbpb.persistStore(0, blk(0), 8, pattern(2));
    bbpb.persistStore(0, blk(2), 8, pattern(3));
    auto records = bbpb.crashDrainRecords();
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].block, blk(2));
    EXPECT_EQ(records[1].block, blk(0));
    EXPECT_EQ(records[2].block, blk(2));
    EXPECT_EQ(records[2].data.bytes[0], 3);
}

TEST(ProcSideBbpb, FullBufferRejects)
{
    Rig rig(2, 1.0);
    ProcSideBbpb bbpb(rig.cfg, rig.eq, rig.nvmm, rig.stats);
    bbpb.persistStore(0, blk(0), 8, pattern(1));
    bbpb.persistStore(0, blk(1), 8, pattern(2));
    EXPECT_FALSE(bbpb.canAcceptPersist(0, blk(2)));
    EXPECT_FALSE(bbpb.canAcceptPersist(0, blk(0))); // no coalescing
}

TEST(ProcSideBbpb, ForceDrainOldestRoundRobinsCoreFronts)
{
    Rig rig(4, 1.0);
    ProcSideBbpb bbpb(rig.cfg, rig.eq, rig.nvmm, rig.stats);
    bbpb.persistStore(1, blk(0), 8, pattern(1));
    bbpb.persistStore(1, blk(1), 8, pattern(2));
    bbpb.persistStore(1, blk(2), 8, pattern(3));
    bbpb.persistStore(0, blk(3), 8, pattern(4)); // allocated last
    // Core 0's front goes first, then core 1's: per-core order only.
    EXPECT_EQ(bbpb.forceDrainOldest(3), 3u);
    EXPECT_EQ(wpqBlocks(rig), (std::vector<Addr>{blk(3), blk(0), blk(1)}));
    EXPECT_TRUE(bbpb.holds(1, blk(2)));
    EXPECT_EQ(bbpb.stats().proactive_drains.value(), 3u);
}

TEST(ProcSideBbpb, ForceDrainOldestStopsAtFullWpq)
{
    Rig rig(4, 1.0, 2);
    ProcSideBbpb bbpb(rig.cfg, rig.eq, rig.nvmm, rig.stats);
    bbpb.persistStore(0, blk(0), 8, pattern(1));
    bbpb.persistStore(0, blk(1), 8, pattern(2));
    bbpb.persistStore(1, blk(2), 8, pattern(3));
    bbpb.persistStore(1, blk(3), 8, pattern(4));
    EXPECT_EQ(bbpb.forceDrainOldest(4), 2u);
    EXPECT_EQ(wpqBlocks(rig), (std::vector<Addr>{blk(0), blk(2)}));
    EXPECT_EQ(bbpb.coreOccupancy(0), 1u);
    EXPECT_EQ(bbpb.coreOccupancy(1), 1u);
}

TEST(ProcSideBbpb, LowPowerRefusesEveryStore)
{
    Rig rig(4, 1.0);
    ProcSideBbpb bbpb(rig.cfg, rig.eq, rig.nvmm, rig.stats);
    bbpb.persistStore(0, blk(0), 8, pattern(1));
    bbpb.setLowPower(true);
    EXPECT_FALSE(bbpb.canAcceptPersist(0, blk(0))); // held: still refused
    EXPECT_FALSE(bbpb.canAcceptPersist(0, blk(1)));
    bbpb.setLowPower(false);
    EXPECT_TRUE(bbpb.canAcceptPersist(0, blk(0)));
}

// ---------------------------------------------------------------------
// Parameterized: threshold arithmetic across buffer sizes.
// ---------------------------------------------------------------------

class BbpbThreshold : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(BbpbThreshold, OccupancySettlesBelowThreshold)
{
    unsigned entries = GetParam();
    Rig rig(entries, 0.75);
    MemSideBbpb bbpb(rig.cfg, rig.eq, rig.nvmm, rig.stats);
    // Fire twice the capacity in distinct blocks; with draining the
    // buffer must end strictly below the threshold.
    for (unsigned i = 0; i < entries * 2; ++i) {
        while (!bbpb.canAcceptPersist(0, blk(i)))
            rig.eq.step();
        bbpb.persistStore(0, blk(i), 8, pattern(1));
    }
    rig.eq.run();
    EXPECT_LT(bbpb.coreOccupancy(0), bbpb.drainThresholdEntries());
    EXPECT_GT(bbpb.stats().drains.value(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BbpbThreshold,
                         ::testing::Values(1, 2, 4, 8, 32, 128));

// ---------------------------------------------------------------------
// Golden drain-order trace: the slab storage against a reference model
// with the old map-plus-fifo semantics.
// ---------------------------------------------------------------------

namespace
{

/**
 * Reference model of the memory-side bbPB semantics as the original
 * std::unordered_map + std::map implementation defined them: per-core
 * FCFS allocation order, coalescing never refreshes age, migration and
 * forced drain remove without reordering, FCFS draining removes the
 * oldest allocation once the occupancy reaches the threshold.
 */
struct FcfsModel
{
    struct Core
    {
        std::vector<Addr> fifo; // oldest first
        std::map<Addr, BlockData> data;
    };

    std::vector<Core> cores;
    unsigned threshold;

    FcfsModel(unsigned num_cores, unsigned entries, double frac)
        : cores(num_cores),
          threshold(std::clamp(
              static_cast<unsigned>(std::ceil(frac * entries)), 1u,
              entries))
    {
    }

    bool
    heldAnywhere(Addr block, CoreId *who = nullptr) const
    {
        for (CoreId c = 0; c < cores.size(); ++c) {
            if (cores[c].data.count(block)) {
                if (who)
                    *who = c;
                return true;
            }
        }
        return false;
    }

    void
    persistStore(CoreId c, Addr block, const BlockData &d)
    {
        Core &core = cores[c];
        if (core.data.count(block)) {
            core.data[block] = d; // coalesce: age unchanged
            return;
        }
        core.fifo.push_back(block);
        core.data[block] = d;
    }

    void
    remove(CoreId c, Addr block)
    {
        Core &core = cores[c];
        core.data.erase(block);
        core.fifo.erase(
            std::find(core.fifo.begin(), core.fifo.end(), block));
    }

    /** Settle after the event queue ran dry: FCFS drain to below the
     *  threshold (the WPQ always clears when the queue runs dry). */
    void
    settle()
    {
        for (Core &core : cores) {
            while (core.fifo.size() >= threshold) {
                core.data.erase(core.fifo.front());
                core.fifo.erase(core.fifo.begin());
            }
        }
    }
};

} // namespace

TEST(MemSideBbpbGolden, SlabMatchesMapSemanticsOnRandomTrace)
{
    constexpr unsigned kEntries = 8;
    constexpr double kThreshold = 0.75;
    Rig rig(kEntries, kThreshold);
    MemSideBbpb bbpb(rig.cfg, rig.eq, rig.nvmm, rig.stats);
    FcfsModel model(rig.cfg.num_cores, kEntries, kThreshold);

    Rng rng(0xfeedu);
    for (unsigned step = 0; step < 4000; ++step) {
        CoreId c = static_cast<CoreId>(rng.below(rig.cfg.num_cores));
        Addr block = blk(static_cast<unsigned>(rng.below(24)));
        std::uint64_t action = rng.below(10);

        if (action < 7) {
            // A persisting store by core c, with the hierarchy's
            // migration protocol in front of it.
            CoreId who = kNoCore;
            if (model.heldAnywhere(block, &who) && who != c) {
                bbpb.onInvalidateForWrite(who, block);
                model.remove(who, block);
            }
            if (!bbpb.canAcceptPersist(c, block))
                continue; // rejection: store retries later
            BlockData d = pattern(static_cast<unsigned char>(step));
            bbpb.persistStore(c, block, 8, d);
            model.persistStore(c, block, d);
        } else if (action < 9) {
            // LLC eviction: forced drain wherever the block is held.
            if (model.heldAnywhere(block)) {
                CoreId who = kNoCore;
                model.heldAnywhere(block, &who);
                bbpb.onForcedDrain(block, pattern(0xee));
                model.remove(who, block);
            }
        }
        // Let drains settle completely, then the model mirrors the
        // "drain until below threshold" steady state.
        rig.eq.run();
        model.settle();

        ASSERT_EQ(bbpb.occupancy(),
                  model.cores[0].fifo.size() + model.cores[1].fifo.size())
            << "step " << step;
        for (CoreId mc = 0; mc < rig.cfg.num_cores; ++mc) {
            std::vector<Addr> got;
            bbpb.forEachHeld([&](CoreId hc, Addr b) {
                if (hc == mc)
                    got.push_back(b);
            });
            ASSERT_EQ(got, model.cores[mc].fifo)
                << "drain order diverged at step " << step << " core "
                << mc;
        }
    }

    // Crash drain: FCFS per core, with the latest coalesced data.
    auto records = bbpb.crashDrainRecords();
    std::size_t i = 0;
    for (CoreId c = 0; c < rig.cfg.num_cores; ++c) {
        for (Addr b : model.cores[c].fifo) {
            ASSERT_LT(i, records.size());
            EXPECT_EQ(records[i].block, b);
            EXPECT_EQ(records[i].data.bytes,
                      model.cores[c].data.at(b).bytes);
            ++i;
        }
    }
    EXPECT_EQ(i, records.size());
}

// ---------------------------------------------------------------------
// Golden trace for ordered records: the processor side against a model
// of per-core program-order record lists.
// ---------------------------------------------------------------------

namespace
{

/** Reference model of the processor-side semantics: each core keeps its
 *  store records in program order; every removal takes a prefix. */
struct OrderedModel
{
    using Record = std::pair<Addr, unsigned char>;
    std::vector<std::vector<Record>> cores;
    unsigned entries;
    unsigned threshold;

    OrderedModel(unsigned num_cores, unsigned n, double frac)
        : cores(num_cores), entries(n),
          threshold(std::clamp(static_cast<unsigned>(std::ceil(frac * n)),
                               1u, n))
    {
    }

    CoreId
    holder(Addr block) const
    {
        for (CoreId c = 0; c < cores.size(); ++c)
            for (const Record &r : cores[c])
                if (r.first == block)
                    return c;
        return kNoCore;
    }

    /** Drop core @p c's records up to and including @p block's last. */
    void
    drainPrefix(CoreId c, Addr block)
    {
        std::vector<Record> &recs = cores[c];
        auto last = std::find_if(recs.rbegin(), recs.rend(),
                                 [&](const Record &r) {
                                     return r.first == block;
                                 });
        recs.erase(recs.begin(), last.base());
    }

    /** Round-robin the per-core fronts, like ProcSideBbpb's proactive
     *  drain with a WPQ that never fills. */
    std::uint64_t
    forceDrainOldest(std::uint64_t max)
    {
        std::uint64_t drained = 0;
        bool progress = true;
        while (drained < max && progress) {
            progress = false;
            for (auto &recs : cores) {
                if (drained == max || recs.empty())
                    continue;
                recs.erase(recs.begin());
                ++drained;
                progress = true;
            }
        }
        return drained;
    }

    void
    settle()
    {
        for (auto &recs : cores)
            while (recs.size() >= threshold)
                recs.erase(recs.begin());
    }
};

} // namespace

TEST(ProcSideBbpbGolden, RecordsMatchOrderedModelOnRandomTrace)
{
    constexpr unsigned kEntries = 8;
    constexpr double kThreshold = 0.75;
    Rig rig(kEntries, kThreshold);
    ProcSideBbpb bbpb(rig.cfg, rig.eq, rig.nvmm, rig.stats);
    OrderedModel model(rig.cfg.num_cores, kEntries, kThreshold);

    Rng rng(0xbeefu);
    for (unsigned step = 0; step < 4000; ++step) {
        CoreId c = static_cast<CoreId>(rng.below(rig.cfg.num_cores));
        Addr block = blk(static_cast<unsigned>(rng.below(12)));
        std::uint64_t action = rng.below(10);
        auto v = static_cast<unsigned char>(step);

        if (action < 7) {
            // A persisting store, with the hierarchy's invalidation of
            // another core's records in front of it.
            CoreId who = model.holder(block);
            if (who != kNoCore && who != c) {
                bbpb.onInvalidateForWrite(who, block);
                model.drainPrefix(who, block);
            }
            if (!bbpb.canAcceptPersist(c, block)) {
                ASSERT_EQ(model.cores[c].size(), kEntries);
                continue;
            }
            bbpb.persistStore(c, block, 8, pattern(v));
            model.cores[c].push_back({block, v});
        } else if (action < 9) {
            // LLC eviction: forced drain through the block's last record.
            CoreId who = model.holder(block);
            bbpb.onForcedDrain(block, pattern(0xee));
            if (who != kNoCore)
                model.drainPrefix(who, block);
        } else {
            std::uint64_t k = rng.below(4);
            ASSERT_EQ(bbpb.forceDrainOldest(k), model.forceDrainOldest(k));
        }
        rig.eq.run();
        model.settle();

        std::size_t total = 0;
        for (CoreId mc = 0; mc < rig.cfg.num_cores; ++mc) {
            ASSERT_EQ(bbpb.coreOccupancy(mc), model.cores[mc].size())
                << "step " << step << " core " << mc;
            total += model.cores[mc].size();
        }
        ASSERT_EQ(bbpb.occupancy(), total) << "step " << step;
        for (unsigned b = 0; b < 12; ++b)
            ASSERT_EQ(bbpb.holder(blk(b)), model.holder(blk(b)))
                << "step " << step << " block " << b;
    }

    // Crash drain: every record, per core in program order.
    auto records = bbpb.crashDrainRecords();
    std::size_t i = 0;
    for (const auto &recs : model.cores) {
        for (const auto &[block, v] : recs) {
            ASSERT_LT(i, records.size());
            EXPECT_EQ(records[i].block, block);
            EXPECT_EQ(records[i].data.bytes[0], v);
            ++i;
        }
    }
    EXPECT_EQ(i, records.size());
    EXPECT_EQ(bbpb.occupancy(), 0u);
}
