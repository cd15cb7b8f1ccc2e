/**
 * @file
 * Unit tests for the memory controller: WPQ accept/reject/coalesce, media
 * retirement, read forwarding, channel bandwidth, force writes, the
 * crash handover and write-through, the one-retire-event-per-entry
 * invariant, and a
 * seeded differential run against a std::map model of the queue.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "fault/fault_injector.hh"
#include "mem/backing_store.hh"
#include "mem/mem_ctrl.hh"
#include "sim/block_table.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

using namespace bbb;

namespace
{

struct Ctx
{
    EventQueue eq;
    BackingStore store;
    DirectMedia media{store};
    StatRegistry stats;
    MemConfig cfg;

    Ctx()
    {
        cfg.read_latency = nsToTicks(150);
        cfg.write_latency = nsToTicks(500);
        cfg.read_occupancy = nsToTicks(10);
        cfg.write_occupancy = nsToTicks(28);
        cfg.channels = 2;
        cfg.wpq_entries = 4;
    }

    MemCtrl
    make()
    {
        return MemCtrl("nvmm", cfg, eq, media, stats);
    }
};

BlockData
pattern(unsigned char v)
{
    BlockData d;
    d.bytes.fill(v);
    return d;
}

} // namespace

TEST(MemCtrl, AcceptsUpToWpqCapacity)
{
    Ctx ctx;
    MemCtrl mc = ctx.make();
    for (Addr i = 0; i < 4; ++i)
        EXPECT_TRUE(mc.enqueueWrite(i * kBlockSize, pattern(1)));
    EXPECT_EQ(mc.wpqOccupancy(), 4u);
    EXPECT_FALSE(mc.enqueueWrite(4 * kBlockSize, pattern(1)));
    EXPECT_FALSE(mc.canAcceptWrite(5 * kBlockSize));
}

TEST(MemCtrl, CoalescesPendingBlocksEvenWhenFull)
{
    Ctx ctx;
    MemCtrl mc = ctx.make();
    for (Addr i = 0; i < 4; ++i)
        ASSERT_TRUE(mc.enqueueWrite(i * kBlockSize, pattern(1)));
    // Full, but block 0 is pending: a re-write coalesces.
    EXPECT_TRUE(mc.canAcceptWrite(0));
    EXPECT_TRUE(mc.enqueueWrite(0, pattern(9)));
    EXPECT_EQ(mc.wpqOccupancy(), 4u);

    ctx.eq.run();
    BlockData out;
    ctx.store.readBlock(0, out.bytes.data());
    EXPECT_EQ(out.bytes[0], 9); // newest value retired
}

TEST(MemCtrl, WritesRetireToMedia)
{
    Ctx ctx;
    MemCtrl mc = ctx.make();
    ASSERT_TRUE(mc.enqueueWrite(kBlockSize, pattern(7)));
    EXPECT_EQ(mc.mediaWrites(), 0u);
    ctx.eq.run();
    EXPECT_EQ(mc.mediaWrites(), 1u);
    EXPECT_EQ(mc.wpqOccupancy(), 0u);
    EXPECT_EQ(ctx.store.read64(kBlockSize), 0x0707070707070707ull);
}

TEST(MemCtrl, RetirementTakesWriteLatency)
{
    Ctx ctx;
    MemCtrl mc = ctx.make();
    ASSERT_TRUE(mc.enqueueWrite(0, pattern(1)));
    ctx.eq.run();
    EXPECT_EQ(ctx.eq.now(), nsToTicks(500));
}

TEST(MemCtrl, ChannelOccupancySerialisesSameChannel)
{
    Ctx ctx;
    MemCtrl mc = ctx.make();
    // Blocks 0 and 2*64 map to channel 0 with 2 channels.
    ASSERT_TRUE(mc.enqueueWrite(0, pattern(1)));
    ASSERT_TRUE(mc.enqueueWrite(2 * kBlockSize, pattern(2)));
    ctx.eq.run();
    // Second write starts one occupancy later: 28 ns + 500 ns.
    EXPECT_EQ(ctx.eq.now(), nsToTicks(28) + nsToTicks(500));
}

TEST(MemCtrl, DistinctChannelsOverlap)
{
    Ctx ctx;
    MemCtrl mc = ctx.make();
    ASSERT_TRUE(mc.enqueueWrite(0, pattern(1)));            // channel 0
    ASSERT_TRUE(mc.enqueueWrite(kBlockSize, pattern(2)));   // channel 1
    ctx.eq.run();
    EXPECT_EQ(ctx.eq.now(), nsToTicks(500)); // fully parallel
}

TEST(MemCtrl, ReadReturnsMediaContent)
{
    Ctx ctx;
    ctx.store.write64(128, 0xabcdef);
    MemCtrl mc = ctx.make();
    BlockData out;
    Tick lat = mc.readBlock(128, out);
    EXPECT_EQ(lat, nsToTicks(150));
    std::uint64_t v;
    std::memcpy(&v, out.bytes.data(), 8);
    EXPECT_EQ(v, 0xabcdefull);
    EXPECT_EQ(mc.mediaReads(), 1u);
}

TEST(MemCtrl, ReadForwardsFromWpq)
{
    Ctx ctx;
    MemCtrl mc = ctx.make();
    ASSERT_TRUE(mc.enqueueWrite(0, pattern(5)));
    BlockData out;
    Tick lat = mc.readBlock(0, out);
    EXPECT_EQ(out.bytes[13], 5);
    EXPECT_LT(lat, nsToTicks(150)); // forwarded, cheaper than media
    EXPECT_EQ(mc.mediaReads(), 0u);
}

TEST(MemCtrl, ForceWriteBypassesQueue)
{
    Ctx ctx;
    MemCtrl mc = ctx.make();
    mc.forceWrite(0, pattern(3));
    EXPECT_EQ(mc.mediaWrites(), 1u);
    EXPECT_EQ(ctx.store.read64(0), 0x0303030303030303ull);
}

TEST(MemCtrl, ForceWriteCoalescesWithPendingEntry)
{
    // An older pending WPQ entry must not later overwrite a force write.
    Ctx ctx;
    MemCtrl mc = ctx.make();
    ASSERT_TRUE(mc.enqueueWrite(0, pattern(1)));
    mc.forceWrite(0, pattern(2));
    ctx.eq.run();
    EXPECT_EQ(ctx.store.read64(0), 0x0202020202020202ull);
}

TEST(MemCtrl, PeekSeesWpqThenMedia)
{
    Ctx ctx;
    ctx.store.write64(0, 111);
    MemCtrl mc = ctx.make();
    BlockData out;
    mc.peekBlock(0, out);
    std::uint64_t v;
    std::memcpy(&v, out.bytes.data(), 8);
    EXPECT_EQ(v, 111u);

    ASSERT_TRUE(mc.enqueueWrite(0, pattern(4)));
    mc.peekBlock(0, out);
    EXPECT_EQ(out.bytes[0], 4);
}

TEST(MemCtrl, WriteThroughCommitsTheCrashHandover)
{
    // The crash drain's path: seize the WPQ, then commit every record
    // synchronously through the controller, which counts each one.
    Ctx ctx;
    MemCtrl mc = ctx.make();
    ASSERT_TRUE(mc.enqueueWrite(0, pattern(1)));
    ASSERT_TRUE(mc.enqueueWrite(kBlockSize, pattern(2)));
    auto records = mc.takeWpqForCrash();
    ASSERT_EQ(records.size(), 2u);
    for (const auto &[block, data] : records) {
        unsigned retries = 1;
        EXPECT_EQ(mc.writeThrough(block, data, retries),
                  MediaAttempt::Landed);
        EXPECT_EQ(retries, 0u);
    }
    EXPECT_EQ(mc.wpqOccupancy(), 0u);
    EXPECT_EQ(mc.mediaWrites(), 2u);
    EXPECT_EQ(ctx.stats.lookup("nvmm", "bytes_written"), 2 * kBlockSize);
    EXPECT_EQ(ctx.stats.lookup("nvmm", "wpq_bypass_writes"), 0u);
    EXPECT_EQ(ctx.store.read64(0), 0x0101010101010101ull);
    EXPECT_EQ(ctx.store.read64(kBlockSize), 0x0202020202020202ull);
}

TEST(MemCtrl, DramConfigGetsDefaultQueue)
{
    Ctx ctx;
    ctx.cfg.wpq_entries = 0; // DRAM-style config
    MemCtrl mc = ctx.make();
    for (Addr i = 0; i < 32; ++i)
        EXPECT_TRUE(mc.enqueueWrite(i * kBlockSize, pattern(1)));
}

TEST(MemCtrl, FifoRetirementOrder)
{
    Ctx ctx;
    ctx.cfg.channels = 1;
    MemCtrl mc = ctx.make();
    ASSERT_TRUE(mc.enqueueWrite(0, pattern(1)));
    ASSERT_TRUE(mc.enqueueWrite(kBlockSize, pattern(2)));
    // Overwrite block 0 while pending: still one entry, newest data, and
    // it retires before block 1 (FIFO by allocation).
    ASSERT_TRUE(mc.enqueueWrite(0, pattern(9)));
    ctx.eq.run();
    EXPECT_EQ(mc.mediaWrites(), 2u);
    EXPECT_EQ(ctx.store.read64(0), 0x0909090909090909ull);
}

TEST(MemCtrl, NoStoreSilentlyDroppedWhenWpqFills)
{
    // Regression for the enqueueWrite() contract audit: blast far more
    // distinct blocks at the WPQ than it has entries, following the
    // documented caller protocol (reject => explicit forceWrite
    // escalation, as the hierarchy and the bbPB forced-drain paths do).
    // Every store must land: a silently dropped write shows up as a
    // stale final value.
    Ctx ctx;
    ctx.cfg.channels = 1; // slow retirement so rejects actually happen
    MemCtrl mc = ctx.make();

    std::map<Addr, unsigned char> final_value;
    std::uint64_t rejects = 0;
    for (unsigned i = 0; i < 64; ++i) {
        Addr block = (i % 16) * kBlockSize;
        auto v = static_cast<unsigned char>(i + 1);
        if (!mc.enqueueWrite(block, pattern(v))) {
            ++rejects;
            mc.forceWrite(block, pattern(v));
        }
        final_value[block] = v;
    }
    ASSERT_GT(rejects, 0u) << "test never exercised the full-WPQ path";
    EXPECT_EQ(ctx.stats.lookup("nvmm", "wpq_rejects"), rejects);

    ctx.eq.run();
    EXPECT_EQ(mc.wpqOccupancy(), 0u);
    for (const auto &[block, v] : final_value) {
        BlockData out;
        ctx.store.readBlock(block, out.bytes.data());
        EXPECT_EQ(out.bytes[0], v) << "stale value in block " << block;
        EXPECT_EQ(out.bytes[kBlockSize - 1], v)
            << "torn value in block " << block;
    }
}

TEST(MemCtrl, TakeWpqForCrashReturnsFifoOrderAndClears)
{
    Ctx ctx;
    ctx.cfg.channels = 1;
    MemCtrl mc = ctx.make();
    ASSERT_TRUE(mc.enqueueWrite(2 * kBlockSize, pattern(3)));
    ASSERT_TRUE(mc.enqueueWrite(0, pattern(1)));
    ASSERT_TRUE(mc.enqueueWrite(kBlockSize, pattern(2)));

    auto records = mc.takeWpqForCrash();
    ASSERT_EQ(records.size(), 3u);
    // Oldest-first (insertion order), not address order.
    EXPECT_EQ(records[0].first, 2 * kBlockSize);
    EXPECT_EQ(records[1].first, 0u);
    EXPECT_EQ(records[2].first, kBlockSize);
    EXPECT_EQ(mc.wpqOccupancy(), 0u);

    // Nothing reached media yet; the crash engine owns the commits, and
    // each one it makes through writeThrough() counts as a media write.
    EXPECT_EQ(ctx.store.read64(0), 0u);
    EXPECT_EQ(mc.mediaWrites(), 0u);
    unsigned retries = 0;
    mc.writeThrough(records[0].first, records[0].second, retries);
    EXPECT_EQ(mc.mediaWrites(), 1u);
}

TEST(MemCtrl, CrashTakeoverCancelsInFlightRetirements)
{
    // Regression: takeWpqForCrash() used to leave the already-scheduled
    // retirement events and channel reservations behind. The stale events
    // then fired against an empty WPQ (assert) or double-committed blocks
    // the crash engine had claimed, and the phantom channel occupancy
    // delayed post-crash writes.
    Ctx ctx;
    ctx.cfg.channels = 1;
    MemCtrl mc = ctx.make();
    ASSERT_TRUE(mc.enqueueWrite(0, pattern(1)));
    ASSERT_TRUE(mc.enqueueWrite(kBlockSize, pattern(2)));
    // Retirements are in flight at 500 ns and 528 ns when the crash
    // engine seizes the queue.
    auto records = mc.takeWpqForCrash();
    ASSERT_EQ(records.size(), 2u);

    // A post-crash write enqueued at t=0 must start immediately: the
    // epoch bump invalidates the stale events and the channel bookkeeping
    // was reset, so its retirement lands at 500 ns, not 556 ns behind the
    // phantom occupancy. Final queue time is the last stale (no-op)
    // event at 528 ns.
    ASSERT_TRUE(mc.enqueueWrite(2 * kBlockSize, pattern(3)));
    ctx.eq.run();
    EXPECT_EQ(ctx.eq.now(), nsToTicks(528));
    EXPECT_EQ(mc.mediaWrites(), 1u);
    EXPECT_EQ(ctx.store.read64(2 * kBlockSize), 0x0303030303030303ull);
    // The seized blocks never leaked to media behind the crash engine.
    EXPECT_EQ(ctx.store.read64(0), 0u);
    EXPECT_EQ(ctx.store.read64(kBlockSize), 0u);
}

TEST(MemCtrl, WpqOccupancyHistogramSamplesEveryEnqueue)
{
    Ctx ctx;
    MemCtrl mc = ctx.make();
    for (Addr i = 0; i < 4; ++i)
        ASSERT_TRUE(mc.enqueueWrite(i * kBlockSize, pattern(1)));
    ctx.eq.run();

    // Occupancy is sampled after every insert (1, 2, 3, 4 entries) and
    // again as each retirement drains the queue (3, 2, 1, 0).
    MetricSnapshot snap = ctx.stats.snapshot();
    EXPECT_EQ(snap.count("nvmm.wpq_occupancy.samples"), 8u);
    EXPECT_EQ(snap.count("nvmm.wpq_occupancy.sum"),
              (1u + 2 + 3 + 4) + (3 + 2 + 1 + 0));
    EXPECT_EQ(snap.real("nvmm.wpq_occupancy.max"), 4.0);
}

TEST(MemCtrl, EachPendingEntryOwnsExactlyOneRetireEvent)
{
    // Every entry's retire event is scheduled at insert, and nothing
    // else schedules one, so on an otherwise idle queue the event count
    // tracks the occupancy exactly. This is why retirement never needs
    // to walk the queue looking for entries that are not yet retiring.
    Ctx ctx;
    MemCtrl mc = ctx.make();
    for (Addr i = 0; i < 4; ++i) {
        ASSERT_TRUE(mc.enqueueWrite(i * kBlockSize, pattern(1)));
        EXPECT_EQ(ctx.eq.pending(), mc.wpqOccupancy());
    }

    // A coalesce (enqueued or forced) and a forwarded read add no event.
    ASSERT_TRUE(mc.enqueueWrite(0, pattern(2)));
    mc.forceWrite(kBlockSize, pattern(3));
    BlockData out;
    mc.readBlock(2 * kBlockSize, out);
    EXPECT_EQ(mc.mediaReads(), 0u); // forwarded
    EXPECT_EQ(mc.wpqOccupancy(), 4u);
    EXPECT_EQ(ctx.eq.pending(), 4u);

    // A retry re-arms the failing entry's own event instead of adding
    // one, and a tear retires the entry with its event.
    FaultPlan plan;
    plan.media_fail_p = 1.0;
    plan.media_retries = 2;
    FaultInjector inj(plan);
    mc.setFaultInjector(&inj);
    while (ctx.eq.step())
        ASSERT_EQ(ctx.eq.pending(), mc.wpqOccupancy());
    EXPECT_EQ(ctx.stats.lookup("nvmm", "media_retry_writes"), 8u);
    EXPECT_EQ(ctx.media.stats().torn_programs.value(), 4u);
    EXPECT_EQ(mc.wpqOccupancy(), 0u);
}

namespace
{

/** DirectMedia that logs every full or torn commit, so a test learns
 *  which block each retirement (or force write) wrote. */
class RecordingMedia : public DirectMedia
{
  public:
    struct Commit
    {
        Addr block;
        BlockData data; ///< full content, or the intended one when torn
        bool torn;
    };

    using DirectMedia::DirectMedia;

    void
    commitBlock(Addr block, const BlockData &data) override
    {
        log.push_back({block, data, false});
        DirectMedia::commitBlock(block, data);
    }

    void
    commitTorn(Addr block, const BlockData &intended,
               unsigned torn_bytes) override
    {
        log.push_back({block, intended, true});
        DirectMedia::commitTorn(block, intended, torn_bytes);
    }

    std::vector<Commit> log;
};

/**
 * Reference WPQ: pending blocks in FIFO (sequence) order in std::maps,
 * plus the content a block not pending forwards -- its last full write,
 * or the intended content of a torn one.
 */
struct WpqModel
{
    explicit WpqModel(std::size_t cap) : capacity(cap) {}

    std::size_t capacity;
    std::map<std::uint64_t, Addr> fifo;
    std::map<Addr, std::pair<std::uint64_t, BlockData>> pending;
    std::map<Addr, BlockData> image;
    std::uint64_t next_seq = 0;

    bool
    accepts(Addr block) const
    {
        return pending.count(block) || pending.size() < capacity;
    }

    void
    write(Addr block, const BlockData &data)
    {
        auto it = pending.find(block);
        if (it != pending.end()) {
            it->second.second = data;
            return;
        }
        fifo.emplace(next_seq, block);
        pending.emplace(block, std::make_pair(next_seq++, data));
    }

    BlockData
    view(Addr block) const
    {
        if (auto it = pending.find(block); it != pending.end())
            return it->second.second;
        if (auto it = image.find(block); it != image.end())
            return it->second;
        return BlockData{};
    }
};

} // namespace

TEST(MemCtrl, DifferentialAgainstMapModelWithMediaFaults)
{
    constexpr unsigned kEntries = 8;
    EventQueue eq;
    BackingStore store;
    RecordingMedia media(store);
    StatRegistry stats;
    MemConfig cfg;
    cfg.read_latency = nsToTicks(150);
    cfg.write_latency = nsToTicks(500);
    cfg.read_occupancy = nsToTicks(10);
    cfg.write_occupancy = nsToTicks(28);
    cfg.channels = 2;
    cfg.wpq_entries = kEntries;
    MemCtrl mc("nvmm", cfg, eq, media, stats);

    // Failed attempts retry (entries leave out of FIFO order) and a
    // third failure tears the block.
    FaultPlan plan;
    plan.media_fail_p = 0.3;
    plan.media_retries = 2;
    plan.media_backoff = nsToTicks(100);
    FaultInjector inj(plan);
    mc.setFaultInjector(&inj);

    // Block pool: ordinary neighbours plus blocks crafted to share the
    // block index's last and first home buckets, so probe chains wrap
    // the table end and backward-shift deletion moves cells across it.
    // The index is a BlockTable sized for wpq_entries.
    BlockTable<std::uint32_t> shape(kEntries);
    const std::size_t last = shape.capacity() - 1;
    std::vector<Addr> pool;
    for (Addr i = 0; i < 7; ++i)
        pool.push_back(i * kBlockSize);
    unsigned at_last = 0, at_first = 0;
    for (Addr n = 1000; at_last < 5 || at_first < 4; ++n) {
        Addr block = n * kBlockSize;
        std::size_t home = shape.bucketOf(block);
        if (home == last && at_last < 5) {
            pool.push_back(block);
            ++at_last;
        } else if (home == 0 && at_first < 4) {
            pool.push_back(block);
            ++at_first;
        }
    }

    WpqModel model(kEntries);
    // Fold the media log into the model. Retirements must commit a
    // pending block with exactly the model's (newest) content.
    auto absorb = [&](bool retirements) {
        for (const RecordingMedia::Commit &c : media.log) {
            if (retirements) {
                auto it = model.pending.find(c.block);
                ASSERT_NE(it, model.pending.end())
                    << "retired block " << c.block << " was not pending";
                EXPECT_EQ(c.data.bytes, it->second.second.bytes);
                model.fifo.erase(it->second.first);
                model.pending.erase(it);
            }
            model.image[c.block] = c.data;
        }
        media.log.clear();
    };

    Rng rng(0x3a11);
    std::uint64_t forwards = 0, crash_records = 0;
    for (unsigned step = 0; step < 6000; ++step) {
        Addr block = pool[rng.below(pool.size())];
        BlockData data = pattern(static_cast<unsigned char>(rng.next()));
        data.bytes[kBlockSize - 1] = static_cast<unsigned char>(step);
        unsigned op = static_cast<unsigned>(rng.below(10));
        if (op < 4) {
            bool expected = model.accepts(block);
            ASSERT_EQ(mc.enqueueWrite(block, data), expected)
                << "step " << step;
            if (expected)
                model.write(block, data);
            EXPECT_TRUE(media.log.empty());
        } else if (op == 4) {
            bool pending = model.pending.count(block) != 0;
            mc.forceWrite(block, data);
            if (pending) {
                model.write(block, data); // coalesced, not committed
                EXPECT_TRUE(media.log.empty());
            } else {
                EXPECT_EQ(media.log.size(), 1u);
                absorb(false);
            }
        } else if (op == 5) {
            BlockData out;
            mc.peekBlock(block, out);
            EXPECT_EQ(out.bytes, model.view(block).bytes) << "step " << step;
        } else if (op == 6) {
            std::uint64_t reads = mc.mediaReads();
            BlockData out;
            mc.readBlock(block, out);
            EXPECT_EQ(out.bytes, model.view(block).bytes) << "step " << step;
            bool forwarded = model.pending.count(block) != 0;
            forwards += forwarded;
            EXPECT_EQ(mc.mediaReads(), reads + (forwarded ? 0 : 1));
        } else if (eq.step()) {
            EXPECT_LE(media.log.size(), 1u);
            absorb(true);
        }
        ASSERT_EQ(mc.wpqOccupancy(), model.pending.size())
            << "step " << step;

        if (step % 1500 == 1499) {
            // Crash handover: FIFO (first-insertion) order, newest data.
            auto records = mc.takeWpqForCrash();
            ASSERT_EQ(records.size(), model.fifo.size());
            std::size_t i = 0;
            for (const auto &[seq, b] : model.fifo) {
                EXPECT_EQ(records[i].first, b) << "record " << i;
                EXPECT_EQ(records[i].second.bytes,
                      model.pending.at(b).second.bytes);
                ++i;
            }
            crash_records += records.size();
            model.fifo.clear();
            model.pending.clear();
            EXPECT_EQ(mc.wpqOccupancy(), 0u);
        }
    }
    eq.run();
    absorb(true);
    EXPECT_TRUE(model.pending.empty());
    EXPECT_EQ(mc.wpqOccupancy(), 0u);
    for (Addr block : pool) {
        BlockData out;
        mc.peekBlock(block, out);
        EXPECT_EQ(out.bytes, model.view(block).bytes) << "block " << block;
    }

    // The run must have exercised every path it claims to cover.
    EXPECT_GT(stats.lookup("nvmm", "wpq_coalesces"), 0u);
    EXPECT_GT(stats.lookup("nvmm", "wpq_rejects"), 0u);
    EXPECT_GT(stats.lookup("nvmm", "wpq_bypass_writes"), 0u);
    EXPECT_GT(stats.lookup("nvmm", "media_retry_writes"), 0u);
    EXPECT_GT(media.stats().torn_programs.value(), 0u);
    EXPECT_GT(forwards, 0u);
    EXPECT_GT(crash_records, 0u);
}
