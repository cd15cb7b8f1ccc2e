/**
 * @file
 * Unit tests for the Table IV workloads: structural correctness of each
 * data structure on simulated memory, recovery checking, persist-store
 * fractions, and functional-vs-timed equivalence.
 */

#include <gtest/gtest.h>

#include "api/experiment.hh"
#include "api/system.hh"
#include "workloads/accessor.hh"
#include "workloads/array_ops.hh"
#include "workloads/workload.hh"

using namespace bbb;

namespace
{

SystemConfig
cfg(PersistMode mode = PersistMode::BbbMemSide, unsigned cores = 2)
{
    SystemConfig c;
    c.num_cores = cores;
    c.l1d.size_bytes = 8_KiB;
    c.llc.size_bytes = 64_KiB;
    c.dram.size_bytes = 128_MiB;
    c.nvmm.size_bytes = 128_MiB;
    c.mode = mode;
    return c;
}

WorkloadParams
smallParams()
{
    WorkloadParams p;
    p.ops_per_thread = 200;
    p.initial_elements = 300;
    p.array_elements = 1 << 12;
    return p;
}

} // namespace

// ---------------------------------------------------------------------
// Parameterized across every registered workload.
// ---------------------------------------------------------------------

class EveryWorkload : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EveryWorkload, RunsAndRecoversConsistently)
{
    System sys(cfg());
    auto wl = makeWorkload(GetParam(), smallParams());
    wl->install(sys);
    sys.run();
    sys.checkInvariants();
    sys.crashNow();
    RecoveryResult res = wl->checkRecovery(sys.pmemImage());
    EXPECT_TRUE(res.consistent()) << GetParam();
    EXPECT_GT(res.checked, 0u);
    EXPECT_EQ(res.intact, res.checked);
}

TEST_P(EveryWorkload, GeneratesPersistingStores)
{
    System sys(cfg());
    auto wl = makeWorkload(GetParam(), smallParams());
    wl->install(sys);
    sys.run();
    EXPECT_GT(sys.stats().lookup("hierarchy", "persisting_stores"), 0u)
        << GetParam();
}

TEST_P(EveryWorkload, DeterministicAcrossRuns)
{
    auto run_once = [&]() {
        System sys(cfg());
        auto wl = makeWorkload(GetParam(), smallParams());
        wl->install(sys);
        sys.run();
        return std::make_pair(sys.executionTime(),
                              sys.effectiveNvmmWrites());
    };
    EXPECT_EQ(run_once(), run_once()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    TableIV, EveryWorkload,
    ::testing::Values("rtree", "ctree", "hashmap", "mutateNC", "mutateC",
                      "swapNC", "swapC", "linkedlist", "rtree-spatial",
                      "btree", "skiplist"),
    [](const auto &param_info) {
        std::string name = param_info.param;
        for (auto &ch : name) {
            if (ch == '-')
                ch = '_';
        }
        return name;
    });

// ---------------------------------------------------------------------
// Structure-specific checks.
// ---------------------------------------------------------------------

TEST(Workloads, LinkedListCountsMatchInsertions)
{
    System sys(cfg());
    WorkloadParams p = smallParams();
    auto wl = makeWorkload("linkedlist", p);
    wl->install(sys);
    sys.run();
    sys.crashNow();
    RecoveryResult res = wl->checkRecovery(sys.pmemImage());
    EXPECT_EQ(res.checked,
              2 * (p.initial_elements + p.ops_per_thread));
}

TEST(Workloads, CtreeKeepsAllInsertedKeysReachable)
{
    System sys(cfg());
    WorkloadParams p = smallParams();
    auto wl = makeWorkload("ctree", p);
    wl->install(sys);
    sys.run();
    sys.crashNow();
    RecoveryResult res = wl->checkRecovery(sys.pmemImage());
    // BST insertion never loses nodes.
    EXPECT_EQ(res.checked, 2 * (p.initial_elements + p.ops_per_thread));
}

TEST(Workloads, RbtreeKeepsAllInsertedKeysReachable)
{
    System sys(cfg());
    WorkloadParams p = smallParams();
    auto wl = makeWorkload("rtree", p);
    wl->install(sys);
    sys.run();
    sys.crashNow();
    RecoveryResult res = wl->checkRecovery(sys.pmemImage());
    EXPECT_EQ(res.checked, 2 * (p.initial_elements + p.ops_per_thread));
}

TEST(Workloads, HashmapChecksEveryInsertion)
{
    System sys(cfg());
    WorkloadParams p = smallParams();
    auto wl = makeWorkload("hashmap", p);
    wl->install(sys);
    sys.run();
    sys.crashNow();
    RecoveryResult res = wl->checkRecovery(sys.pmemImage());
    EXPECT_EQ(res.checked, 2 * (p.initial_elements + p.ops_per_thread));
}

TEST(Workloads, ArrayEncodingRoundTrips)
{
    for (std::uint32_t payload : {0u, 1u, 12345u, 0xffffffffu}) {
        std::uint64_t word = ArrayWorkload::encode(payload);
        EXPECT_TRUE(ArrayWorkload::validate(word));
        EXPECT_EQ(static_cast<std::uint32_t>(word >> 32), payload);
    }
    EXPECT_FALSE(ArrayWorkload::validate(0xdeadbeefdeadbeefull));
    // Zero is NOT a valid encoding by luck of the hash; assert whichever
    // way it falls stays stable (documented behaviour for fresh memory).
    EXPECT_EQ(ArrayWorkload::validate(ArrayWorkload::encode(0)), true);
}

TEST(Workloads, ArrayFullyValidatesAfterRun)
{
    System sys(cfg());
    WorkloadParams p = smallParams();
    auto wl = makeWorkload("mutateC", p);
    wl->install(sys);
    sys.run();
    sys.crashNow();
    RecoveryResult res = wl->checkRecovery(sys.pmemImage());
    EXPECT_EQ(res.checked, p.array_elements);
    EXPECT_EQ(res.torn, 0u);
}

TEST(Workloads, ArrayPrebuildMatchesWordByWordReference)
{
    // prepare() writes the array a page of elements at a time; the image
    // must hold the bytes one store per element gives, for arrays shorter
    // than, equal to, just past and well past one chunk.
    for (std::uint64_t n : {1u, 511u, 512u, 513u, 1000u}) {
        WorkloadParams p = smallParams();
        p.array_elements = n;
        System built(cfg());
        makeWorkload("mutateNC", p)->install(built);

        System ref(cfg());
        Addr base = ref.heap().alloc(0, n * 8, kBlockSize);
        ImageAccessor img(ref.image());
        img.st(ref.heap().rootAddr(0), base);
        for (std::uint64_t i = 0; i < n; ++i)
            img.st(base + i * 8,
                   ArrayWorkload::encode(static_cast<std::uint32_t>(i)));

        const BackingStore &got = built.image();
        const BackingStore &want = ref.image();
        EXPECT_EQ(got.read64(built.heap().rootAddr(0)), base) << n;
        for (std::uint64_t i = 0; i < n; ++i)
            ASSERT_EQ(got.read64(base + i * 8), want.read64(base + i * 8))
                << "array of " << n << ", element " << i;
        EXPECT_EQ(got.read64(base + n * 8), 0u) << n;
        EXPECT_EQ(got.read64(base - 8), 0u) << n;
        EXPECT_EQ(got.pagesTouched(), want.pagesTouched()) << n;
        EXPECT_EQ(got.fingerprint(), want.fingerprint()) << n;
    }
}

TEST(Workloads, NonConflictingThreadsTouchDisjointSlices)
{
    System sys(cfg(PersistMode::BbbMemSide, 2));
    WorkloadParams p = smallParams();
    auto wl = makeWorkload("mutateNC", p);
    wl->install(sys);
    sys.run();
    // Disjoint slices => no cross-core invalidation traffic on the array
    // (the hot heap-header blocks may still bounce a little).
    EXPECT_LT(sys.stats().lookup("hierarchy", "invalidations"), 10u);
}

TEST(Workloads, ConflictingThreadsCauseCoherenceTraffic)
{
    System sys(cfg(PersistMode::BbbMemSide, 2));
    WorkloadParams p = smallParams();
    p.array_elements = 1 << 6; // tiny array: heavy conflicts
    auto wl = makeWorkload("swapC", p);
    wl->install(sys);
    sys.run();
    EXPECT_GT(sys.stats().lookup("hierarchy", "invalidations"), 50u);
    // Conflicting writes migrate bbPB entries between cores (Fig. 6a/b).
    EXPECT_GT(sys.stats().lookup("bbpb", "migrations"), 0u);
    sys.checkInvariants();
}

TEST(Workloads, UnknownNameIsFatal)
{
    EXPECT_DEATH(
        { makeWorkload("nosuch", smallParams()); }, "unknown workload");
}

TEST(Workloads, RegistryNamesInstantiate)
{
    for (const auto &name : workloadNames()) {
        auto wl = makeWorkload(name, smallParams());
        ASSERT_NE(wl, nullptr);
        EXPECT_EQ(wl->name(), name);
    }
}

TEST(Workloads, PStoreFractionsAreSane)
{
    // Every workload's persisting-store fraction of all stores must be
    // substantial (they are persist-stress workloads), and array
    // workloads must exceed tree workloads (Table IV shapes).
    WorkloadParams p = smallParams();
    auto frac = [&](const char *name) {
        ExperimentResult r = runExperiment(cfg(), name, p);
        EXPECT_GT(r.persisting_stores, 0u) << name;
        return r.pStoreFraction();
    };
    EXPECT_GT(frac("hashmap"), 0.5); // all our stores target the heap
    EXPECT_GT(frac("mutateNC"), 0.5);
}
