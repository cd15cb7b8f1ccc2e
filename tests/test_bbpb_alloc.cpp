/**
 * @file
 * Steady-state allocation check for the persist hot path: the bbPB and
 * the memory controller's write-pending queue (WPQ) below it.
 *
 * This translation unit replaces the global operator new/delete with
 * counting versions, gated by a flag so gtest's own allocations are
 * ignored. After construction, the slab buffers, the ownership index,
 * and the pre-reserved event-queue heap must serve the bbPB side of the
 * persist pipeline — persistStore (allocate and coalesce), ownership
 * probes, and migration — without touching the heap. Once warm, the
 * WPQ's fixed slots and block index must likewise serve MemCtrl
 * enqueue, coalesce, forwarded and media reads, retirement, and
 * fault-injected retries. Only first-touch backing-store pages and a
 * torn write's fault-ledger entry may allocate.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/bbpb.hh"
#include "fault/fault_injector.hh"
#include "mem/backing_store.hh"
#include "sim/event_queue.hh"

namespace
{

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocs{0};

void *
countedAlloc(std::size_t size)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

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

    explicit Rig(unsigned entries, double threshold)
        : cfg(makeCfg(entries, threshold)),
          nvmm("nvmm", cfg.nvmm, eq, media, stats)
    {
        eq.reserve(cfg.eventCapacityHint());
    }

    static SystemConfig
    makeCfg(unsigned entries, double threshold)
    {
        SystemConfig cfg;
        cfg.num_cores = 2;
        cfg.bbpb.entries = entries;
        cfg.bbpb.drain_threshold = threshold;
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

/** Allocations observed while running @p fn with counting enabled. */
template <typename Fn>
std::size_t
allocationsDuring(Fn &&fn)
{
    g_allocs.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
    fn();
    g_counting.store(false, std::memory_order_relaxed);
    return g_allocs.load(std::memory_order_relaxed);
}

} // namespace

TEST(BbpbAllocationFree, MemSideSteadyStatePerformsNoHeapAllocation)
{
    // Threshold 1.0: the drain engine only runs at capacity, so the
    // counted region exercises pure slab traffic.
    Rig rig(32, 1.0);
    MemSideBbpb bbpb(rig.cfg, rig.eq, rig.nvmm, rig.stats);

    std::size_t n = allocationsDuring([&] {
        for (unsigned round = 0; round < 500; ++round) {
            CoreId c = static_cast<CoreId>(round & 1);
            for (unsigned i = 0; i < 24; ++i) {
                Addr b = blk(i);
                // Hierarchy protocol: migrate from the previous owner,
                // then store (allocate) and coalesce on the new one.
                CoreId prev = bbpb.holder(b);
                if (prev != kNoCore && prev != c)
                    bbpb.onInvalidateForWrite(prev, b);
                if (!bbpb.canAcceptPersist(c, b))
                    continue; // never hit: 24 blocks in 32 slots
                bbpb.persistStore(c, b, 8,
                                  pattern(static_cast<unsigned char>(i)));
                bbpb.persistStore(c, b + 8, 8,
                                  pattern(static_cast<unsigned char>(i)));
                (void)bbpb.holds(c, b);
            }
        }
    });
    EXPECT_EQ(n, 0u) << n << " heap allocations on the hot path";
    EXPECT_GT(bbpb.stats().coalesces.value(), 0u);
    EXPECT_GT(bbpb.stats().migrations.value(), 0u);
    EXPECT_EQ(bbpb.occupancy(), 24u);
}

TEST(BbpbAllocationFree, MemSideSlotReuseAfterDrainsStaysAllocationFree)
{
    // Fill-drain-refill cycles: slots keep coming off and going back on
    // the free list. Every round drains fresh blocks, whose first-touch
    // backing-store pages allocate, so the drains run outside the
    // counted regions; only the slab traffic is counted.
    Rig rig(16, 0.5);
    MemSideBbpb bbpb(rig.cfg, rig.eq, rig.nvmm, rig.stats);

    std::size_t n = 0;
    for (unsigned round = 0; round < 50; ++round) {
        n += allocationsDuring([&] {
            for (unsigned i = 0; i < 16; ++i) {
                unsigned b = round * 16 + i;
                if (!bbpb.canAcceptPersist(0, blk(b)))
                    break; // buffer full mid-drain: try next round
                bbpb.persistStore(0, blk(b), 8,
                                  pattern(static_cast<unsigned char>(b)));
            }
        });
        rig.eq.run(); // drain to media, uncounted
    }
    EXPECT_EQ(n, 0u) << n << " heap allocations across drain cycles";
    EXPECT_GT(bbpb.stats().drains.value(), 0u);
}

TEST(BbpbAllocationFree, ProcSideSteadyStatePerformsNoHeapAllocation)
{
    Rig rig(32, 1.0);
    ProcSideBbpb bbpb(rig.cfg, rig.eq, rig.nvmm, rig.stats);

    std::size_t n = 0;
    for (unsigned round = 0; round < 100; ++round) {
        // Counted: fill the buffer with two ordered records per block
        // (records never coalesce) plus ownership probes.
        n += allocationsDuring([&] {
            for (unsigned i = 0; i < 16; ++i) {
                Addr b = blk(i);
                if (!bbpb.canAcceptPersist(0, b))
                    continue; // never hit: 32 records in 32 slots
                bbpb.persistStore(0, b, 8,
                                  pattern(static_cast<unsigned char>(i)));
                bbpb.persistStore(0, b + 8, 8,
                                  pattern(static_cast<unsigned char>(i)));
                (void)bbpb.holds(0, b);
                (void)bbpb.holder(b);
            }
        });
        ASSERT_EQ(bbpb.coreOccupancy(0), 32u);
        // Counted too: the ordered prefix drain streams every record
        // through the WPQ.
        n += allocationsDuring(
            [&] { bbpb.onInvalidateForWrite(0, blk(15)); });
        ASSERT_EQ(bbpb.coreOccupancy(0), 0u);
    }
    EXPECT_EQ(n, 0u) << n << " heap allocations on the hot path";
    EXPECT_EQ(bbpb.stats().forced_drains.value(), 100u * 32);
}

TEST(WpqAllocationFree, WarmQueuePerformsNoHeapAllocation)
{
    // More distinct blocks per round than the WPQ's 64 slots, so inserts
    // meet a full queue and retire entries to make room. Failed media
    // attempts retry; with 16 retries at p = 0.25 a tear (which files a
    // fault-ledger entry) is practically impossible, and checked below.
    Rig rig(32, 1.0);
    FaultPlan plan;
    plan.media_fail_p = 0.25;
    plan.media_retries = 16;
    FaultInjector inj(plan);
    rig.nvmm.setFaultInjector(&inj);
    MemCtrl &mc = rig.nvmm;

    auto round = [&](unsigned r) {
        for (unsigned i = 0; i < 96; ++i) {
            Addr b = blk(i);
            while (!mc.enqueueWrite(b, pattern(static_cast<unsigned char>(r))))
                ASSERT_TRUE(rig.eq.step()) << "full WPQ with nothing queued";
            // Coalesce, then a forwarded read and a media read.
            ASSERT_TRUE(
                mc.enqueueWrite(b, pattern(static_cast<unsigned char>(r + 1))));
            BlockData out;
            (void)mc.readBlock(b, out);
            (void)mc.readBlock(blk(i + 1000), out);
        }
        rig.eq.run();
    };
    round(0); // warm-up: first-touch pages and event slots, uncounted

    std::size_t n = allocationsDuring([&] {
        for (unsigned r = 1; r <= 100; ++r)
            round(r);
    });
    EXPECT_EQ(n, 0u) << n << " heap allocations in the warm WPQ";
    EXPECT_GT(rig.stats.lookup("nvmm", "wpq_coalesces"), 0u);
    EXPECT_GT(rig.stats.lookup("nvmm", "wpq_rejects"), 0u);
    EXPECT_GT(rig.stats.lookup("nvmm", "media_retry_writes"), 0u);
    EXPECT_GT(rig.stats.lookup("nvmm", "media_reads"), 0u);
    EXPECT_EQ(rig.media.stats().torn_programs.value(), 0u);
    EXPECT_EQ(mc.wpqOccupancy(), 0u);
}

TEST(BbpbAllocationFree, EventQueueReserveHonorsConfigHint)
{
    SystemConfig cfg;
    EventQueue eq;
    eq.reserve(cfg.eventCapacityHint());
    EXPECT_GE(eq.heapCapacity(), cfg.eventCapacityHint());
    // The hint covers at least the obvious per-core event sources.
    EXPECT_GE(cfg.eventCapacityHint(),
              static_cast<std::size_t>(cfg.num_cores) *
                  cfg.store_buffer.entries);
}
