/**
 * @file
 * Property-based crash-consistency tests: the paper's central claims,
 * checked over sweeps of crash points, workloads, and modes.
 *
 *  P1. Under BBB (either organisation), eADR, and correctly annotated
 *      PMEM, the persistent image is consistent at *every* crash point.
 *  P2. Under BBB, the set of persisted nodes per thread is a *prefix* of
 *      that thread's insertion order: persist order == program order
 *      (strict persistency).
 *  P3. Persisted state only grows: crashing later never recovers fewer
 *      nodes (same seed, same schedule).
 *  P4. BBB recovers at least as much as ADR/PMEM at the same crash point
 *      (its PoP is earlier in the pipeline).
 */

#include <gtest/gtest.h>

#include "api/system.hh"
#include "workloads/linkedlist.hh"
#include "workloads/workload.hh"

using namespace bbb;

namespace
{

SystemConfig
cfg(PersistMode mode)
{
    SystemConfig c;
    c.num_cores = 2;
    c.l1d.size_bytes = 8_KiB;
    c.llc.size_bytes = 32_KiB;
    c.dram.size_bytes = 64_MiB;
    c.nvmm.size_bytes = 64_MiB;
    c.mode = mode;
    return c;
}

struct CrashOutcome
{
    RecoveryResult recovery;
    std::uint64_t prefix_len[2]; // per-thread persisted prefix length
};

/**
 * Run the linked-list workload, crash at @p tick, and measure both
 * consistency and the per-thread persisted prefix. Keys are sequential
 * per thread (tid in the high bits), so the prefix property is checkable:
 * walking from the head, keys must descend contiguously.
 */
CrashOutcome
crashList(PersistMode mode, Tick tick, std::uint64_t ops)
{
    System sys(cfg(mode));
    // Sequential keys: thread t inserts (t<<32)|1, (t<<32)|2, ...
    std::uint64_t counter[2] = {0, 0};
    for (CoreId t = 0; t < 2; ++t) {
        sys.onThread(t, [&sys, &counter, t, ops](ThreadContext &tc) {
            TcAccessor m(tc);
            Addr root = sys.heap().rootAddr(t);
            for (std::uint64_t i = 1; i <= ops; ++i) {
                LinkedListWorkload::appendNode(
                    m, sys.heap(), t, root,
                    (static_cast<std::uint64_t>(t) << 32) | i);
                counter[t] = i;
            }
        });
    }
    sys.runAndCrashAt(tick);

    CrashOutcome out{};
    PmemImage img = sys.pmemImage();
    for (unsigned t = 0; t < 2; ++t) {
        Addr node = img.read64(sys.heap().rootAddr(t));
        std::uint64_t expected = 0;
        bool first = true;
        while (node != 0) {
            if (!img.validPersistent(node)) {
                ++out.recovery.dangling;
                break;
            }
            std::uint64_t key = img.read64(node);
            std::uint64_t sum = img.read64(node + 8);
            ++out.recovery.checked;
            if (sum != nodeChecksum(key)) {
                ++out.recovery.torn;
                break;
            }
            ++out.recovery.intact;
            if (first) {
                out.prefix_len[t] = key & 0xffffffff;
                expected = key;
                first = false;
            } else {
                //

                // Strict prefix: each node's key is its successor's + 1.
                if (key + 1 != expected) {
                    ++out.recovery.torn; // order violation counts as torn
                    break;
                }
                expected = key;
            }
            node = img.read64(node + 16);
        }
    }
    return out;
}

} // namespace

class CrashPointSweep
    : public ::testing::TestWithParam<std::tuple<PersistMode, int>>
{
};

TEST_P(CrashPointSweep, ConsistentAndPrefixOrdered)
{
    auto [mode, point] = GetParam();
    Tick tick = nsToTicks(3000ull * point * point + 500);
    CrashOutcome out = crashList(mode, tick, 3000);
    EXPECT_EQ(out.recovery.torn, 0u)
        << persistModeName(mode) << " @" << tick;
    EXPECT_EQ(out.recovery.dangling, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SafeModes, CrashPointSweep,
    ::testing::Combine(::testing::Values(PersistMode::AdrPmem,
                                         PersistMode::PmemStrict,
                                         PersistMode::Eadr,
                                         PersistMode::BbbMemSide,
                                         PersistMode::BbbProcSide),
                       ::testing::Range(1, 9)),
    [](const auto &param_info) {
        std::string name = persistModeName(std::get<0>(param_info.param));
        for (auto &ch : name) {
            if (ch == '-')
                ch = '_';
        }
        return name + "_p" + std::to_string(std::get<1>(param_info.param));
    });

TEST(CrashProperties, PersistedStateGrowsMonotonically)
{
    std::uint64_t prev = 0;
    for (int i = 1; i <= 6; ++i) {
        CrashOutcome out = crashList(PersistMode::BbbMemSide,
                                     nsToTicks(10000ull * i), 2000);
        std::uint64_t total = out.prefix_len[0] + out.prefix_len[1];
        EXPECT_GE(total, prev) << "crash point " << i;
        prev = total;
    }
    EXPECT_GT(prev, 0u);
}

TEST(CrashProperties, BbbPersistsAtLeastAsMuchAsPmem)
{
    for (int i = 2; i <= 6; i += 2) {
        Tick tick = nsToTicks(15000ull * i);
        CrashOutcome bbb = crashList(PersistMode::BbbMemSide, tick, 2000);
        CrashOutcome pmem = crashList(PersistMode::AdrPmem, tick, 2000);
        EXPECT_GE(bbb.prefix_len[0] + bbb.prefix_len[1],
                  pmem.prefix_len[0] + pmem.prefix_len[1])
            << "crash at " << tick;
    }
}

TEST(CrashProperties, EadrAndBbbRecoverEquivalently)
{
    // The paper's headline: BBB == eADR for recoverability.
    for (int i = 1; i <= 4; ++i) {
        Tick tick = nsToTicks(20000ull * i);
        CrashOutcome bbb = crashList(PersistMode::BbbMemSide, tick, 2000);
        CrashOutcome eadr = crashList(PersistMode::Eadr, tick, 2000);
        EXPECT_EQ(bbb.recovery.torn, 0u);
        EXPECT_EQ(eadr.recovery.torn, 0u);
        // Recovered amounts are close (identical timing up to drain
        // noise: both persist at commit).
        std::int64_t diff =
            std::int64_t(bbb.prefix_len[0] + bbb.prefix_len[1]) -
            std::int64_t(eadr.prefix_len[0] + eadr.prefix_len[1]);
        EXPECT_LT(std::abs(diff), 200) << "crash at " << tick;
    }
}

TEST(CrashProperties, PostCrashImageMatchesArchitecturalPrefix)
{
    // Coalescing must never lose bytes: after a full run + crash, the
    // NVMM image of every reachable node equals the architecturally
    // stored value (checked by the checksum walk over ALL modes' safe
    // configurations with random replacement to vary eviction order).
    for (PersistMode mode :
         {PersistMode::Eadr, PersistMode::BbbMemSide,
          PersistMode::BbbProcSide}) {
        SystemConfig c = cfg(mode);
        c.l1d.repl = ReplPolicy::Random;
        c.llc.repl = ReplPolicy::Random;
        System sys(c);
        WorkloadParams p;
        p.ops_per_thread = 500;
        p.initial_elements = 100;
        auto wl = makeWorkload("hashmap", p);
        wl->install(sys);
        sys.run();
        sys.crashNow();
        RecoveryResult res = wl->checkRecovery(sys.pmemImage());
        EXPECT_TRUE(res.consistent()) << persistModeName(mode);
        EXPECT_EQ(res.checked, 2 * 600u) << persistModeName(mode);
    }
}
