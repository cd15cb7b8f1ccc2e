/**
 * @file
 * Unit tests for the core model and thread context: op accounting, store
 * buffering behaviour, mode-gated persist instructions, compute timing,
 * and stall handling.
 */

#include <gtest/gtest.h>

#include "api/system.hh"

using namespace bbb;

namespace
{

SystemConfig
cfg1(PersistMode mode)
{
    SystemConfig cfg;
    cfg.num_cores = 1;
    cfg.l1d.size_bytes = 8_KiB;
    cfg.llc.size_bytes = 32_KiB;
    cfg.dram.size_bytes = 64_MiB;
    cfg.nvmm.size_bytes = 64_MiB;
    cfg.mode = mode;
    return cfg;
}

} // namespace

TEST(Core, LoadReturnsStoredValueThroughSb)
{
    System sys(cfg1(PersistMode::Eadr));
    Addr a = sys.heap().alloc(0, 8);
    std::uint64_t seen = 0;
    sys.onThread(0, [&](ThreadContext &tc) {
        tc.store64(a, 31337);
        seen = tc.load64(a); // forwarded from the store buffer
    });
    sys.run();
    EXPECT_EQ(seen, 31337u);
}

TEST(Core, SubWordAccesses)
{
    System sys(cfg1(PersistMode::Eadr));
    Addr a = sys.heap().alloc(0, 8);
    std::uint32_t lo = 0, hi = 0;
    sys.onThread(0, [&](ThreadContext &tc) {
        tc.store64(a, 0xAAAAAAAABBBBBBBBull);
        tc.store32(a + 4, 0xCCCCCCCC);
        lo = tc.load32(a);
        hi = tc.load32(a + 4);
    });
    sys.run();
    EXPECT_EQ(lo, 0xBBBBBBBBu);
    EXPECT_EQ(hi, 0xCCCCCCCCu);
}

TEST(Core, LoadAfterPartialOverwriteSeesTheNewBytes)
{
    // A cold store ahead of them holds the L1D write port, so both
    // stores to `a` are still buffered when the load issues. The younger
    // half-word store overlaps the load without covering it: the load
    // must wait for the block to drain rather than forward the older,
    // now partly stale, word.
    System sys(cfg1(PersistMode::Eadr));
    Addr cold = sys.heap().alloc(0, 64, 64);
    Addr a = sys.heap().alloc(0, 8);
    std::uint64_t seen = 0;
    sys.onThread(0, [&](ThreadContext &tc) {
        tc.store64(cold, 1);
        tc.store64(a, 0xAAAAAAAABBBBBBBBull);
        tc.store32(a + 4, 0xCCCCCCCC);
        seen = tc.load64(a);
    });
    sys.run();
    EXPECT_EQ(seen, 0xCCCCCCCCBBBBBBBBull);
}

TEST(Core, ComputeAdvancesTimeExactly)
{
    System sys(cfg1(PersistMode::Eadr));
    Tick t0 = 0, t1 = 0;
    sys.onThread(0, [&](ThreadContext &tc) {
        t0 = tc.now();
        tc.compute(1000);
        t1 = tc.now();
    });
    sys.run();
    EXPECT_EQ(t1 - t0, sys.config().cycles(1000));
}

TEST(Core, FinishTickReflectsWork)
{
    System sys(cfg1(PersistMode::Eadr));
    sys.onThread(0, [&](ThreadContext &tc) { tc.compute(500); });
    Tick end = sys.run();
    EXPECT_GE(end, sys.config().cycles(500));
    EXPECT_TRUE(sys.core(0).finished());
    EXPECT_EQ(sys.core(0).finishTick(), end);
}

TEST(Core, OpCountersTrack)
{
    System sys(cfg1(PersistMode::AdrPmem));
    Addr a = sys.heap().alloc(0, 8);
    sys.onThread(0, [&](ThreadContext &tc) {
        tc.store64(a, 1);
        tc.load64(a);
        tc.writeBack(a);
        tc.persistBarrier();
    });
    sys.run();
    EXPECT_EQ(sys.stats().lookup("core0", "stores"), 1u);
    EXPECT_EQ(sys.stats().lookup("core0", "loads"), 1u);
    EXPECT_EQ(sys.stats().lookup("core0", "flushes"), 1u);
    EXPECT_EQ(sys.stats().lookup("core0", "fences"), 1u);
}

TEST(Core, PmemStrictHonoursAnnotatedPersistInstructions)
{
    // The strict expansion adds to the program's own clwb/sfence; it
    // does not replace them.
    System sys(cfg1(PersistMode::PmemStrict));
    Addr p = sys.heap().alloc(0, 8);
    sys.onThread(0, [&](ThreadContext &tc) {
        tc.store64(p, 1); // + flush + fence
        tc.writeBack(p);
        tc.persistBarrier();
    });
    sys.run();
    EXPECT_EQ(sys.stats().lookup("core0", "flushes"), 2u);
    EXPECT_EQ(sys.stats().lookup("core0", "fences"), 2u);
}

TEST(Core, PersistInstructionsAreNoopsOutsidePmem)
{
    for (PersistMode mode : {PersistMode::Eadr, PersistMode::BbbMemSide,
                             PersistMode::AdrUnsafe}) {
        System sys(cfg1(mode));
        Addr a = sys.heap().alloc(0, 8);
        sys.onThread(0, [&](ThreadContext &tc) {
            tc.store64(a, 1);
            tc.writeBack(a);
            tc.persistBarrier();
        });
        sys.run();
        EXPECT_EQ(sys.stats().lookup("core0", "flushes"), 0u)
            << persistModeName(mode);
        EXPECT_EQ(sys.stats().lookup("core0", "fences"), 0u);
    }
}

TEST(Core, AutoStrictInstrumentsEveryPersistingStore)
{
    System sys(cfg1(PersistMode::PmemStrict));
    Addr p = sys.heap().alloc(0, 64, 64);
    Addr d = 4096; // DRAM: not instrumented
    sys.onThread(0, [&](ThreadContext &tc) {
        tc.store64(p, 1);
        tc.store64(p + 8, 2);
        tc.store64(d, 3);
    });
    sys.run();
    EXPECT_EQ(sys.stats().lookup("core0", "flushes"), 2u);
    EXPECT_EQ(sys.stats().lookup("core0", "fences"), 2u);
}

TEST(Core, FenceWaitsForStoreBufferDrain)
{
    System sys(cfg1(PersistMode::AdrPmem));
    Addr p = sys.heap().alloc(0, 64, 64);
    sys.onThread(0, [&](ThreadContext &tc) {
        tc.store64(p, 1); // cold NVMM block: slow retire
        tc.persistBarrier();
        // After the barrier the store buffer must be empty.
    });
    sys.run();
    EXPECT_EQ(sys.stats().lookup("sb0", "retired"), 1u);
}

TEST(Core, StrictStoreIsDurableAtWpqAfterFence)
{
    System sys(cfg1(PersistMode::PmemStrict));
    Addr p = sys.heap().alloc(0, 8);
    sys.onThread(0, [&](ThreadContext &tc) { tc.store64(p, 0xd00d); });
    sys.run();
    // ADR: WPQ content survives the crash even in PMEM mode.
    sys.crashNow();
    EXPECT_EQ(sys.pmemImage().read64(p), 0xd00du);
}

TEST(Core, SbFullStallsAreCounted)
{
    SystemConfig cfg = cfg1(PersistMode::Eadr);
    cfg.store_buffer.entries = 2;
    System sys(cfg);
    Addr base = sys.heap().alloc(0, 64 * kBlockSize, 64);
    sys.onThread(0, [&](ThreadContext &tc) {
        // Back-to-back cold stores overwhelm a 2-entry buffer.
        for (unsigned i = 0; i < 32; ++i)
            tc.store64(base + i * kBlockSize, i);
    });
    sys.run();
    EXPECT_GT(sys.stats().lookup("core0", "sb_full_stalls"), 0u);
    EXPECT_GT(sys.stats().lookup("core0", "stall_ticks"), 0u);
}

TEST(Core, PartialOverlapLoadWaitsForSb)
{
    System sys(cfg1(PersistMode::Eadr));
    Addr a = sys.heap().alloc(0, 64, 64);
    std::uint64_t seen = 0;
    sys.onThread(0, [&](ThreadContext &tc) {
        tc.store32(a, 0x1111);     // 4-byte store
        seen = tc.load64(a);       // 8-byte load: no full forward
    });
    sys.run();
    EXPECT_EQ(seen, 0x1111u); // waited for retirement, then loaded
}

TEST(Core, TwoThreadsFinishIndependently)
{
    SystemConfig cfg = cfg1(PersistMode::Eadr);
    cfg.num_cores = 2;
    System sys(cfg);
    sys.onThread(0, [&](ThreadContext &tc) { tc.compute(10); });
    sys.onThread(1, [&](ThreadContext &tc) { tc.compute(10000); });
    sys.run();
    EXPECT_LT(sys.core(0).finishTick(), sys.core(1).finishTick());
    EXPECT_EQ(sys.executionTime(), sys.core(1).finishTick());
}

TEST(Core, RngIsPerThreadDeterministic)
{
    std::uint64_t first_run = 0, second_run = 0;
    for (std::uint64_t *out : {&first_run, &second_run}) {
        System sys(cfg1(PersistMode::Eadr));
        sys.onThread(0, [&](ThreadContext &tc) { *out = tc.rng().next(); });
        sys.run();
    }
    EXPECT_EQ(first_run, second_run);
}

namespace
{

/** Metrics of @p sys, minus the one leaf that legitimately depends on
 *  how the run was sliced. */
std::string
slicingInvariantMetrics(const System &sys)
{
    MetricSnapshot m = sys.snapshotMetrics();
    // A slice boundary refuses in-place firing, so the share of events
    // fired in place varies with the slicing; the events do not.
    m.setCount("sim.events_inlined", 0);
    return m.toJson();
}

/** Four threads contending on shared and private persistent blocks. */
void
bindContendingThreads(System &sys, Addr shared, Addr priv)
{
    for (CoreId c = 0; c < 4; ++c) {
        sys.onThread(c, [shared, priv, c](ThreadContext &tc) {
            Addr mine = priv + c * 16 * kBlockSize;
            for (unsigned i = 0; i < 200; ++i) {
                Addr s = shared + (tc.rng().below(8) * kBlockSize);
                if (tc.rng().chance(0.4))
                    tc.store64(s, i + c);
                else
                    tc.load64(s);
                tc.store64(mine + (i % 16) * kBlockSize, i);
                tc.load64(mine + ((i * 7) % 16) * kBlockSize);
                if (i % 16 == 0)
                    tc.compute(5);
            }
        });
    }
}

} // namespace

TEST(Core, SlicedRunMatchesOneRun)
{
    // In-place firing must never look past a runUntil() limit: cutting a
    // multi-core run into many small slices reproduces the whole run.
    SystemConfig cfg = cfg1(PersistMode::BbbMemSide);
    cfg.num_cores = 4;

    System whole(cfg);
    Addr shared = whole.heap().alloc(0, 8 * kBlockSize, 64);
    Addr priv = whole.heap().alloc(0, 64 * kBlockSize, 64);
    bindContendingThreads(whole, shared, priv);
    whole.runUntil(kMaxTick);
    const Tick end = whole.eventQueue().now();
    ASSERT_GT(whole.eventQueue().inlined(), 0u);

    System sliced(cfg);
    ASSERT_EQ(sliced.heap().alloc(0, 8 * kBlockSize, 64), shared);
    ASSERT_EQ(sliced.heap().alloc(0, 64 * kBlockSize, 64), priv);
    bindContendingThreads(sliced, shared, priv);
    unsigned slices = 0;
    for (Tick t = 0; t < end; t += 1 + (slices++ * 7919) % (end / 200))
        sliced.runUntil(t);
    sliced.runUntil(end);
    EXPECT_GT(slices, 100u);

    EXPECT_EQ(sliced.eventQueue().now(), whole.eventQueue().now());
    EXPECT_EQ(sliced.eventQueue().executed(),
              whole.eventQueue().executed());
    EXPECT_LT(sliced.eventQueue().inlined(), whole.eventQueue().inlined());
    EXPECT_TRUE(sliced.core(0).finished());
    EXPECT_EQ(slicingInvariantMetrics(sliced),
              slicingInvariantMetrics(whole));
}
