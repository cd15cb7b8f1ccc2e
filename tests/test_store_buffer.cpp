/**
 * @file
 * Unit tests for the store buffer: forwarding, retirement, port billing,
 * bbPB-rejection retries, out-of-order drain, and crash extraction, plus
 * a golden check of the indexed buffer against a plain deque model.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <deque>
#include <random>
#include <vector>

#include "cache/hierarchy.hh"
#include "cpu/store_buffer.hh"
#include "mem/addr_map.hh"
#include "mem/backing_store.hh"
#include "mem/mem_ctrl.hh"

using namespace bbb;

namespace
{

/** Backend whose acceptance can be toggled per block. */
class GatedBackend : public NullPersistencyBackend
{
  public:
    std::set<Addr> blocked;

    bool
    canAcceptPersist(CoreId, Addr block) override
    {
        return blocked.count(blockAlign(block)) == 0;
    }
};

/** Backend that refuses its first @p rejects persists, whatever the block. */
class RelentingBackend : public NullPersistencyBackend
{
  public:
    unsigned rejects = 0;

    bool
    canAcceptPersist(CoreId, Addr) override
    {
        if (rejects == 0)
            return true;
        --rejects;
        return false;
    }
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
    GatedBackend backend;
    StoreBuffer sb;

    Rig()
        : cfg(makeCfg()), map(AddrMap::fromConfig(cfg)),
          dram("dram", cfg.dram, eq, dram_media, stats),
          nvmm("nvmm", cfg.nvmm, eq, nvmm_media, stats),
          hier(cfg, map, eq, dram, nvmm, stats),
          sb(0, cfg, eq, hier, stats)
    {
        hier.setBackend(&backend);
    }

    static SystemConfig
    makeCfg()
    {
        SystemConfig cfg;
        cfg.num_cores = 1;
        cfg.store_buffer.entries = 4;
        cfg.l1d.size_bytes = 4_KiB;
        cfg.llc.size_bytes = 16_KiB;
        cfg.dram.size_bytes = 64_MiB;
        cfg.nvmm.size_bytes = 64_MiB;
        return cfg;
    }

    Addr persist(unsigned i = 0) const
    {
        return map.persistBase() + i * kBlockSize;
    }
};

} // namespace

TEST(StoreBuffer, PushAndRetire)
{
    Rig rig;
    rig.sb.push(100, 8, 0xabc, false);
    EXPECT_EQ(rig.sb.size(), 1u);
    rig.eq.run();
    EXPECT_TRUE(rig.sb.empty());
    std::uint64_t v = 0;
    rig.hier.load(0, 100, 8, &v);
    EXPECT_EQ(v, 0xabcu);
}

TEST(StoreBuffer, FullAtCapacity)
{
    Rig rig;
    for (unsigned i = 0; i < 4; ++i)
        rig.sb.push(i * kBlockSize, 8, i, false);
    EXPECT_TRUE(rig.sb.full());
}

TEST(StoreBuffer, ForwardingExactAndContained)
{
    Rig rig;
    rig.sb.push(64, 8, 0x1122334455667788ull, false);
    std::uint64_t out = 0;
    EXPECT_TRUE(rig.sb.forward(64, 8, out));
    EXPECT_EQ(out, 0x1122334455667788ull);
    EXPECT_TRUE(rig.sb.forward(68, 4, out)); // contained high half
    EXPECT_EQ(out, 0x11223344u);
    EXPECT_TRUE(rig.sb.forward(64, 1, out));
    EXPECT_EQ(out, 0x88u);
}

TEST(StoreBuffer, ForwardingMissesDisjointAndPartial)
{
    Rig rig;
    rig.sb.push(64, 4, 0xaaaa, false);
    std::uint64_t out;
    EXPECT_FALSE(rig.sb.forward(72, 4, out)); // disjoint
    EXPECT_FALSE(rig.sb.forward(64, 8, out)); // larger than the store
}

TEST(StoreBuffer, ForwardingPrefersYoungest)
{
    Rig rig;
    rig.sb.push(64, 8, 1, false);
    rig.sb.push(64, 8, 2, false);
    std::uint64_t out;
    EXPECT_TRUE(rig.sb.forward(64, 8, out));
    EXPECT_EQ(out, 2u);
}

TEST(StoreBuffer, YoungerPartialOverlapBlocksStaleForward)
{
    // The older entry covers the load, but the younger one overwrote
    // its high half: forwarding the older word would return stale
    // bytes, so the load must wait for the buffer to drain.
    Rig rig;
    rig.sb.push(64, 8, 0xAAAAAAAABBBBBBBBull, false);
    rig.sb.push(68, 4, 0xCCCCCCCCull, false);
    std::uint64_t out = 0;
    EXPECT_EQ(rig.sb.probe(64, 8, out), SbProbe::Blocked);
    EXPECT_EQ(rig.sb.probe(64, 4, out), SbProbe::Hit); // untouched half
    EXPECT_EQ(out, 0xBBBBBBBBull);
    EXPECT_EQ(rig.sb.probe(68, 4, out), SbProbe::Hit);
    EXPECT_EQ(out, 0xCCCCCCCCull);
}

TEST(StoreBuffer, HasBlockMatchesAtBlockGranularity)
{
    Rig rig;
    rig.sb.push(64, 8, 1, false);
    EXPECT_TRUE(rig.sb.hasBlock(64));
    EXPECT_TRUE(rig.sb.hasBlock(120)); // same block
    EXPECT_FALSE(rig.sb.hasBlock(128));
}

TEST(StoreBuffer, RetiresInFifoOrderByDefault)
{
    Rig rig;
    rig.sb.push(0, 8, 1, false);
    rig.sb.push(0, 8, 2, false); // same address, program order
    rig.eq.run();
    std::uint64_t v = 0;
    rig.hier.load(0, 0, 8, &v);
    EXPECT_EQ(v, 2u);
}

TEST(StoreBuffer, RejectedPersistRetriesUntilUnblocked)
{
    Rig rig;
    rig.backend.blocked.insert(rig.persist());
    rig.sb.push(rig.persist(), 8, 7, true);
    // Let several retry intervals elapse: still buffered.
    rig.eq.run(rig.eq.now() + rig.cfg.cycles(100));
    EXPECT_EQ(rig.sb.size(), 1u);
    EXPECT_EQ(rig.sb.rejections(), 1u); // counted once, not per poll
    EXPECT_GT(rig.sb.retryPolls(), 1u);

    rig.backend.blocked.clear();
    rig.eq.run();
    EXPECT_TRUE(rig.sb.empty());
}

TEST(StoreBuffer, OooDrainBypassesBlockedHead)
{
    Rig rig;
    rig.sb.setOutOfOrderDrain(true);
    rig.backend.blocked.insert(rig.persist(0));
    rig.sb.push(rig.persist(0), 8, 1, true); // blocked head
    rig.sb.push(rig.persist(1), 8, 2, true); // drainable
    rig.eq.run(rig.eq.now() + rig.cfg.cycles(200));
    // The younger store retired past the blocked head.
    EXPECT_EQ(rig.sb.size(), 1u);
    std::uint64_t v = 0;
    rig.hier.load(0, rig.persist(1), 8, &v);
    EXPECT_EQ(v, 2u);
}

TEST(StoreBuffer, OooDrainNeverReordersSameBlock)
{
    Rig rig;
    rig.sb.setOutOfOrderDrain(true);
    rig.backend.blocked.insert(rig.persist(0));
    rig.sb.push(rig.persist(0), 8, 1, true);     // blocked head
    rig.sb.push(rig.persist(0) + 8, 8, 2, true); // same block: must wait
    rig.eq.run(rig.eq.now() + rig.cfg.cycles(200));
    EXPECT_EQ(rig.sb.size(), 2u); // neither retired
}

TEST(StoreBuffer, OooDrainKeepsSameBlockOrderWhenTheBackendRelents)
{
    // The bbPB accepts again partway through a drain step: the head and
    // the older store to block 1 are refused, and the next check would
    // pass. The younger store to block 1 must not take it.
    Rig rig;
    RelentingBackend relenting;
    relenting.rejects = 2;
    rig.hier.setBackend(&relenting);
    rig.sb.setOutOfOrderDrain(true);
    rig.sb.push(rig.persist(0), 8, 1, true);
    rig.sb.push(rig.persist(1), 8, 2, true);
    rig.sb.push(rig.persist(1), 8, 3, true);
    rig.eq.run();
    EXPECT_TRUE(rig.sb.empty());
    std::uint64_t v = 0;
    rig.hier.peek(rig.persist(1), 8, &v);
    EXPECT_EQ(v, 3u);
}

TEST(StoreBuffer, InOrderDrainNeverBypasses)
{
    Rig rig;
    rig.sb.setOutOfOrderDrain(false);
    rig.backend.blocked.insert(rig.persist(0));
    rig.sb.push(rig.persist(0), 8, 1, true);
    rig.sb.push(rig.persist(1), 8, 2, true);
    rig.eq.run(rig.eq.now() + rig.cfg.cycles(200));
    EXPECT_EQ(rig.sb.size(), 2u);
}

TEST(StoreBuffer, DrainForCrashReturnsOnlyPersistingInOrder)
{
    Rig rig;
    rig.backend.blocked.insert(rig.persist(0));
    rig.backend.blocked.insert(rig.persist(1));
    rig.sb.push(rig.persist(0), 8, 1, true);
    rig.sb.push(100, 8, 2, false); // volatile: excluded
    rig.sb.push(rig.persist(1), 8, 3, true);
    auto entries = rig.sb.drainForCrash();
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].data, 1u);
    EXPECT_EQ(entries[1].data, 3u);
    EXPECT_TRUE(rig.sb.empty());
}

TEST(StoreBuffer, PortBusyThrottlesAcrossEmptyPeriods)
{
    // A store missing to NVMM occupies the port for its full latency;
    // a second store pushed later must not retire before the port frees.
    Rig rig;
    rig.sb.push(rig.persist(0), 8, 1, true); // cold NVMM miss, slow
    rig.eq.run(rig.eq.now() + rig.cfg.cycles(4));
    // First store retired already (atomic-with-latency), buffer empty,
    // but the port is busy for ~read latency.
    rig.sb.push(rig.persist(0), 8, 2, true); // L1 hit, would be fast
    Tick before = rig.eq.now();
    while (!rig.sb.empty() && rig.eq.step()) {
    }
    Tick elapsed = rig.eq.now() - before;
    EXPECT_GE(elapsed, rig.cfg.nvmm.read_latency / 2);
}

namespace
{

/** Buffered stores in program order, as the buffer reports them. */
std::vector<SbEntry>
contents(const StoreBuffer &sb)
{
    std::vector<SbEntry> out;
    sb.forEach([&](const SbEntry &e) { out.push_back(e); });
    return out;
}

bool
sameStore(const SbEntry &a, const SbEntry &b)
{
    return a.addr == b.addr && a.size == b.size && a.data == b.data &&
           a.persisting == b.persisting;
}

/**
 * Reference model: the buffer as a plain deque, scanned linearly. It
 * answers loads and picks drain victims by the buffer's rules.
 */
struct DequeModel
{
    std::deque<SbEntry> q;

    SbProbe
    probe(Addr addr, unsigned size, std::uint64_t &out) const
    {
        for (auto it = q.rbegin(); it != q.rend(); ++it) {
            if (addr >= it->addr + it->size || it->addr >= addr + size)
                continue; // disjoint
            if (addr < it->addr || addr + size > it->addr + it->size)
                return SbProbe::Blocked; // youngest overlap is partial
            std::uint64_t mask =
                size == 8 ? ~0ull : ((1ull << (size * 8)) - 1);
            out = (it->data >> ((addr - it->addr) * 8)) & mask;
            return SbProbe::Hit;
        }
        return hasBlock(addr) ? SbProbe::Blocked : SbProbe::Miss;
    }

    bool
    hasBlock(Addr addr) const
    {
        for (const SbEntry &e : q) {
            if (blockAlign(e.addr) == blockAlign(addr))
                return true;
        }
        return false;
    }

    /** Index the drain engine retires given which stores the backend
     *  accepts, or q.size() when every candidate is rejected. */
    template <typename Accepts>
    std::size_t
    drainVictim(bool ooo, Accepts &&accepts) const
    {
        if (accepts(q[0]))
            return 0;
        if (!ooo)
            return q.size();
        for (std::size_t i = 1; i < q.size(); ++i) {
            bool same_block_older = false;
            for (std::size_t j = 0; j < i; ++j) {
                if (blockAlign(q[j].addr) == blockAlign(q[i].addr))
                    same_block_older = true;
            }
            if (!same_block_older && accepts(q[i]))
                return i;
        }
        return q.size();
    }

    std::vector<SbEntry>
    drainForCrash()
    {
        std::vector<SbEntry> out;
        for (const SbEntry &e : q) {
            if (e.persisting)
                out.push_back(e);
        }
        q.clear();
        return out;
    }
};

/** Drives a Rig's buffer and a DequeModel with one seeded trace. */
struct TraceCheck
{
    Rig &rig;
    DequeModel model;
    std::mt19937_64 rng;
    std::size_t retirements = 0;

    TraceCheck(Rig &r, std::uint64_t seed) : rig(r), rng(seed) {}

    unsigned pick(unsigned n) { return static_cast<unsigned>(rng() % n); }

    /** One of three persistent and three volatile blocks, at a random
     *  naturally aligned offset in the first 32 bytes, so that stores
     *  and loads overlap exactly, partly and not at all. */
    std::pair<Addr, unsigned>
    randomAccess()
    {
        static constexpr unsigned kSizes[] = {1, 2, 4, 8};
        unsigned size = kSizes[pick(4)];
        unsigned b = pick(6);
        Addr block = b < 3 ? rig.persist(b) : b * kBlockSize;
        return {block + pick(32 / size) * size, size};
    }

    void
    push()
    {
        auto [addr, size] = randomAccess();
        std::uint64_t data = rng();
        if (size < 8)
            data &= (1ull << (size * 8)) - 1;
        bool persisting = rig.map.isPersistent(addr);
        rig.sb.push(addr, size, data, persisting);
        model.q.push_back(SbEntry{addr, size, data, persisting, false});
    }

    void
    probe()
    {
        auto [addr, size] = randomAccess();
        std::uint64_t real = 0, expect = 0;
        SbProbe got = rig.sb.probe(addr, size, real);
        ASSERT_EQ(got, model.probe(addr, size, expect)) << addr;
        if (got == SbProbe::Hit) {
            ASSERT_EQ(real, expect) << addr;
        }
        std::uint64_t fwd = 0;
        ASSERT_EQ(rig.sb.forward(addr, size, fwd), got == SbProbe::Hit);
        ASSERT_EQ(rig.sb.hasBlock(addr), model.hasBlock(addr));
    }

    void
    toggleGate()
    {
        Addr block = rig.persist(pick(3));
        if (!rig.backend.blocked.erase(block))
            rig.backend.blocked.insert(block);
    }

    /** Mirror a retirement the drain engine just made. */
    void
    onRetire(bool ooo)
    {
        auto accepts = [&](const SbEntry &e) {
            return !e.persisting ||
                   rig.backend.blocked.count(blockAlign(e.addr)) == 0;
        };
        std::size_t i = model.drainVictim(ooo, accepts);
        ASSERT_LT(i, model.q.size()) << "the buffer retired a blocked store";
        ++retirements;
        model.q.erase(model.q.begin() + static_cast<std::ptrdiff_t>(i));
    }

    void
    expectSameContents()
    {
        std::vector<SbEntry> real = contents(rig.sb);
        ASSERT_EQ(real.size(), model.q.size());
        ASSERT_EQ(rig.sb.size(), model.q.size());
        ASSERT_EQ(rig.sb.full(), model.q.size() == rig.cfg.store_buffer.entries);
        for (std::size_t i = 0; i < real.size(); ++i)
            ASSERT_TRUE(sameStore(real[i], model.q[i])) << "entry " << i;
    }

    void
    expectSameCrashDrain()
    {
        std::vector<SbEntry> real = rig.sb.drainForCrash();
        std::vector<SbEntry> expect = model.drainForCrash();
        ASSERT_EQ(real.size(), expect.size());
        for (std::size_t i = 0; i < real.size(); ++i)
            ASSERT_TRUE(sameStore(real[i], expect[i])) << "crash entry " << i;
        ASSERT_TRUE(rig.sb.empty());
        for (unsigned b = 0; b < 6; ++b) {
            Addr block = b < 3 ? rig.persist(b) : b * kBlockSize;
            ASSERT_FALSE(rig.sb.hasBlock(block));
        }
    }
};

} // namespace

TEST(StoreBuffer, IndexMatchesDequeModelUnderDrainEngine)
{
    // Random pushes, loads, bbPB gate flips and drain events, in order
    // and out of order; the buffer must hold, forward and retire exactly
    // what the deque model does, and hand the same stores to a crash.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        bool ooo = seed % 2 == 1;
        Rig rig;
        rig.sb.setOutOfOrderDrain(ooo);
        TraceCheck t(rig, seed);
        rig.sb.setOnChange([&]() { t.onRetire(ooo); });
        for (int step = 0; step < 4000; ++step) {
            unsigned action = t.pick(10);
            if (action < 4 && !rig.sb.full())
                t.push();
            else if (action < 6)
                t.probe();
            else if (action == 6)
                t.toggleGate();
            else
                rig.eq.step();
            ASSERT_NO_FATAL_FAILURE(t.expectSameContents())
                << "seed " << seed << " step " << step;
            if (HasFatalFailure())
                return;
        }
        EXPECT_GT(t.retirements, 300u) << "seed " << seed;
        EXPECT_GT(rig.sb.rejections(), 0u) << "seed " << seed;
        if (ooo) {
            EXPECT_GT(rig.stats.lookup("sb0", "ooo_retires"), 0u);
        }
        ASSERT_NO_FATAL_FAILURE(t.expectSameCrashDrain()) << "seed " << seed;
    }
}

TEST(StoreBuffer, IndexMatchesDequeModelUnderManualDrain)
{
    // Litmus schedule control: retireOne() takes the head, or the tail
    // under the seeded drain-youngest mutation, which unlinks each
    // block's newest entry instead of its oldest.
    for (bool youngest : {false, true}) {
        if (youngest)
            setenv("BBB_LITMUS_MUTATE", "drain-youngest", 1);
        Rig rig;
        unsetenv("BBB_LITMUS_MUTATE");
        rig.sb.setManualDrain(true);
        TraceCheck t(rig, youngest ? 11 : 10);
        for (int step = 0; step < 4000; ++step) {
            unsigned action = t.pick(10);
            if (action < 4 && !rig.sb.full()) {
                t.push();
            } else if (action < 7) {
                t.probe();
            } else if (!t.model.q.empty()) {
                ASSERT_TRUE(rig.sb.retireOne());
                if (youngest)
                    t.model.q.pop_back();
                else
                    t.model.q.pop_front();
            } else {
                ASSERT_FALSE(rig.sb.retireOne());
            }
            ASSERT_NO_FATAL_FAILURE(t.expectSameContents())
                << "youngest " << youngest << " step " << step;
        }
        ASSERT_NO_FATAL_FAILURE(t.expectSameCrashDrain());
    }
}

TEST(StoreBuffer, ThreeEntryBlockChainSurvivesRemovals)
{
    // A blocked head lets out-of-order drain retire the three stores to
    // block b from the middle of the buffer, oldest first; the block's
    // remaining entries keep forwarding and blocking correctly.
    const std::uint64_t v1 = 0x1111111111111111ull;
    const std::uint64_t v2 = 0x2222222222222222ull;
    const std::uint64_t v3 = 0x3333333333333333ull;
    Rig rig;
    rig.sb.setOutOfOrderDrain(true);
    rig.backend.blocked.insert(rig.persist(0));
    Addr b = rig.persist(1);
    rig.sb.push(rig.persist(0), 8, 9, true); // blocked head
    rig.sb.push(b, 8, v1, true);
    rig.sb.push(b + 8, 8, v2, true);
    rig.sb.push(b + 16, 8, v3, true);
    std::uint64_t out = 0;
    EXPECT_EQ(rig.sb.probe(b, 8, out), SbProbe::Hit);
    EXPECT_EQ(out, v1);
    EXPECT_EQ(rig.sb.probe(b + 12, 4, out), SbProbe::Hit);
    EXPECT_EQ(out, 0x22222222u);
    EXPECT_EQ(rig.sb.probe(b + 24, 8, out), SbProbe::Blocked);

    auto retireNext = [&rig]() {
        std::size_t before = rig.sb.size();
        while (rig.sb.size() == before && rig.eq.step()) {
        }
    };
    retireNext(); // b: the chain's oldest, second in the buffer
    ASSERT_EQ(rig.sb.size(), 3u);
    EXPECT_EQ(rig.sb.probe(b, 8, out), SbProbe::Blocked);
    EXPECT_EQ(rig.sb.probe(b + 8, 8, out), SbProbe::Hit);
    EXPECT_EQ(out, v2);
    EXPECT_EQ(rig.sb.probe(b + 16, 8, out), SbProbe::Hit);
    EXPECT_EQ(out, v3);

    retireNext(); // b + 8
    ASSERT_EQ(rig.sb.size(), 2u);
    EXPECT_EQ(rig.sb.probe(b + 8, 8, out), SbProbe::Blocked);
    EXPECT_EQ(rig.sb.probe(b + 16, 8, out), SbProbe::Hit);
    EXPECT_EQ(out, v3);

    retireNext(); // b + 16: the block leaves the index
    ASSERT_EQ(rig.sb.size(), 1u);
    EXPECT_FALSE(rig.sb.hasBlock(b));
    EXPECT_EQ(rig.sb.probe(b + 16, 8, out), SbProbe::Miss);
    EXPECT_TRUE(rig.sb.hasBlock(rig.persist(0)));
    for (unsigned i = 0; i < 3; ++i) {
        std::uint64_t v = 0;
        rig.hier.peek(b + 8 * i, 8, &v);
        EXPECT_EQ(v, (i + 1) * 0x1111111111111111ull);
    }

    // The block's next store starts a fresh chain.
    rig.sb.push(b + 8, 8, 4, true);
    EXPECT_EQ(rig.sb.probe(b + 8, 8, out), SbProbe::Hit);
    EXPECT_EQ(out, 4u);
    EXPECT_EQ(rig.sb.probe(b, 8, out), SbProbe::Blocked);
}

TEST(StoreBuffer, ThreeEntryBlockChainSurvivesYoungestFirstRemovals)
{
    // The drain-youngest shape unlinks the chain's newest entry, so the
    // index must fall back to the next-older one each time.
    setenv("BBB_LITMUS_MUTATE", "drain-youngest", 1);
    Rig rig;
    unsetenv("BBB_LITMUS_MUTATE");
    rig.sb.setManualDrain(true);
    Addr b = rig.persist(1);
    rig.sb.push(b, 8, 1, true);
    rig.sb.push(b + 8, 8, 2, true);
    rig.sb.push(b + 16, 8, 3, true);
    std::uint64_t out = 0;
    ASSERT_TRUE(rig.sb.retireOne()); // b + 16
    EXPECT_EQ(rig.sb.probe(b + 16, 8, out), SbProbe::Blocked);
    EXPECT_EQ(rig.sb.probe(b + 8, 8, out), SbProbe::Hit);
    EXPECT_EQ(out, 2u);
    ASSERT_TRUE(rig.sb.retireOne()); // b + 8
    EXPECT_EQ(rig.sb.probe(b + 8, 8, out), SbProbe::Blocked);
    EXPECT_EQ(rig.sb.probe(b, 8, out), SbProbe::Hit);
    EXPECT_EQ(out, 1u);
    ASSERT_TRUE(rig.sb.retireOne()); // b
    EXPECT_EQ(rig.sb.probe(b, 8, out), SbProbe::Miss);
    EXPECT_FALSE(rig.sb.retireOne());
}
