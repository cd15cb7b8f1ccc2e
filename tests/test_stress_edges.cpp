/**
 * @file
 * Edge-case and stress tests: WPQ saturation, eviction storms under tiny
 * caches, flush semantics corner cases, and heap-pressure behaviour.
 */

#include <gtest/gtest.h>

#include "api/experiment.hh"
#include "api/system.hh"
#include "workloads/workload.hh"

using namespace bbb;

namespace
{

SystemConfig
tinyCfg(PersistMode mode)
{
    SystemConfig cfg;
    cfg.num_cores = 2;
    cfg.l1d.size_bytes = 1_KiB;
    cfg.l1d.assoc = 2;
    cfg.llc.size_bytes = 4_KiB;
    cfg.llc.assoc = 2;
    cfg.dram.size_bytes = 64_MiB;
    cfg.nvmm.size_bytes = 64_MiB;
    cfg.mode = mode;
    return cfg;
}

} // namespace

TEST(Stress, TinyWpqNeverLosesData)
{
    SystemConfig cfg = tinyCfg(PersistMode::BbbMemSide);
    cfg.nvmm.wpq_entries = 2; // pathological WPQ
    cfg.bbpb.entries = 4;
    System sys(cfg);
    Addr base = sys.heap().alloc(0, 256 * kBlockSize, 64);
    sys.onThread(0, [&](ThreadContext &tc) {
        for (unsigned i = 0; i < 256; ++i)
            tc.store64(base + i * kBlockSize, i + 1);
    });
    sys.run();
    sys.crashNow();
    for (unsigned i = 0; i < 256; ++i)
        EXPECT_EQ(sys.pmemImage().read64(base + i * kBlockSize), i + 1);
}

TEST(Stress, EvictionStormKeepsEveryModeCorrect)
{
    for (PersistMode mode :
         {PersistMode::AdrUnsafe, PersistMode::Eadr,
          PersistMode::BbbMemSide, PersistMode::BbbProcSide}) {
        SystemConfig cfg = tinyCfg(mode);
        System sys(cfg);
        // Working set 64x the LLC: constant eviction.
        Addr base = sys.heap().alloc(0, 4096 * 8, 64);
        sys.onThread(0, [&](ThreadContext &tc) {
            for (int round = 0; round < 3; ++round) {
                for (unsigned i = 0; i < 4096; ++i)
                    tc.store64(base + i * 8, (round << 16) | i);
            }
            // Architectural check through the same machine.
            for (unsigned i = 0; i < 4096; i += 97)
                EXPECT_EQ(tc.load64(base + i * 8), (2u << 16) | i)
                    << persistModeName(mode);
        });
        sys.run();
        sys.checkInvariants();
    }
}

TEST(Stress, SharedHotBlockUnderAllModes)
{
    // Every core hammers one block: maximal migration/intervention load.
    for (PersistMode mode :
         {PersistMode::Eadr, PersistMode::BbbMemSide,
          PersistMode::BbbProcSide}) {
        SystemConfig cfg = tinyCfg(mode);
        cfg.num_cores = 4;
        System sys(cfg);
        Addr a = sys.heap().alloc(0, 8);
        for (CoreId t = 0; t < 4; ++t) {
            sys.onThread(t, [&, t](ThreadContext &tc) {
                for (int i = 0; i < 500; ++i) {
                    tc.store64(a, (static_cast<std::uint64_t>(t) << 32) | i);
                    tc.load64(a);
                }
            });
        }
        sys.run();
        sys.checkInvariants();
        sys.crashNow();
        // The persisted value is one of the last writes: its writer tag
        // must decode to a real core.
        std::uint64_t v = sys.pmemImage().read64(a);
        EXPECT_LT(v >> 32, 4u) << persistModeName(mode);
    }
}

TEST(FlushSemantics, FlushOfRemoteModifiedBlockPersists)
{
    SystemConfig cfg = tinyCfg(PersistMode::AdrPmem);
    System sys(cfg);
    Addr a = sys.heap().alloc(0, 8);
    sys.onThread(0, [&](ThreadContext &tc) {
        tc.store64(a, 0x111);
        tc.compute(1000); // let it settle into core 0's L1 as M
    });
    sys.onThread(1, [&](ThreadContext &tc) {
        tc.compute(2000);
        // Core 1 flushes a block core 0 modified: the freshest copy must
        // be the one that reaches the WPQ.
        tc.writeBack(a);
        tc.persistBarrier();
    });
    sys.run();
    sys.crashNow();
    EXPECT_EQ(sys.pmemImage().read64(a), 0x111u);
}

TEST(FlushSemantics, DoubleFlushIsIdempotent)
{
    SystemConfig cfg = tinyCfg(PersistMode::AdrPmem);
    System sys(cfg);
    Addr a = sys.heap().alloc(0, 8);
    sys.onThread(0, [&](ThreadContext &tc) {
        tc.store64(a, 7);
        tc.writeBack(a);
        tc.persistBarrier();
        tc.writeBack(a); // clean now: cheap no-op
        tc.persistBarrier();
    });
    sys.run();
    sys.crashNow();
    EXPECT_EQ(sys.pmemImage().read64(a), 7u);
}

TEST(FlushSemantics, AsyncFlushesOverlapUntilFence)
{
    // N flushes then one fence must be much cheaper than N
    // flush+fence pairs (clwb pipelining).
    SystemConfig cfg = tinyCfg(PersistMode::AdrPmem);
    auto run = [&](bool fence_each) {
        System sys(cfg);
        Addr base = sys.heap().alloc(0, 16 * kBlockSize, 64);
        sys.onThread(0, [&, fence_each](ThreadContext &tc) {
            for (unsigned i = 0; i < 16; ++i)
                tc.store64(base + i * kBlockSize, i);
            for (unsigned i = 0; i < 16; ++i) {
                tc.writeBack(base + i * kBlockSize);
                if (fence_each)
                    tc.persistBarrier();
            }
            tc.persistBarrier();
        });
        sys.run();
        return sys.executionTime();
    };
    Tick batched = run(false);
    Tick serial = run(true);
    EXPECT_LT(batched, serial);
}

TEST(Stress, ManyFibersManyCores)
{
    SystemConfig cfg = tinyCfg(PersistMode::BbbMemSide);
    cfg.num_cores = 16;
    System sys(cfg);
    std::uint64_t done = 0;
    for (CoreId t = 0; t < 16; ++t) {
        sys.onThread(t, [&, t](ThreadContext &tc) {
            Addr a = sys.heap().alloc(t, 64, 64);
            for (int i = 0; i < 100; ++i) {
                tc.store64(a, i);
                tc.compute(tc.rng().below(20));
            }
            ++done;
        });
    }
    sys.run();
    EXPECT_EQ(done, 16u);
    sys.checkInvariants();
}

TEST(Stress, ZeroOpWorkloadsAreHarmless)
{
    System sys(tinyCfg(PersistMode::BbbMemSide));
    WorkloadParams p;
    p.ops_per_thread = 0;
    p.initial_elements = 10;
    auto wl = makeWorkload("hashmap", p);
    wl->install(sys);
    sys.run();
    sys.crashNow();
    RecoveryResult res = wl->checkRecovery(sys.pmemImage());
    EXPECT_TRUE(res.consistent());
    EXPECT_EQ(res.checked, 2 * 10u);
}
