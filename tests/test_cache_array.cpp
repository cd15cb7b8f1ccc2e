/**
 * @file
 * Unit tests for the set-associative array and replacement policies,
 * including parameterized sweeps over every policy.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "cache/cache_array.hh"
#include "cache/hierarchy.hh"

using namespace bbb;

namespace
{

struct Line
{
    int payload = 0;
};

/** Address of way-conflicting blocks for a given set in a 4-way array. */
Addr
conflicting(const CacheArray<Line> &array, unsigned i)
{
    return static_cast<Addr>(i) * array.numSets() * kBlockSize;
}

} // namespace

TEST(CacheArray, GeometryFromSizeAndAssoc)
{
    CacheArray<Line> a(128_KiB, 8);
    EXPECT_EQ(a.numLines(), 2048u);
    EXPECT_EQ(a.numSets(), 256u);
    EXPECT_EQ(a.assoc(), 8u);
}

TEST(CacheArray, FindMissesOnEmpty)
{
    CacheArray<Line> a(4_KiB, 4);
    EXPECT_EQ(a.find(0), nullptr);
}

TEST(CacheArray, FillThenFind)
{
    CacheArray<Line> a(4_KiB, 4);
    Line &v = a.victim(640);
    a.fill(v, 640);
    v.payload = 5;
    Line *found = a.find(640);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->payload, 5);
    EXPECT_EQ(a.blockOf(*found), 640u);
    // Unaligned lookups resolve to the block.
    EXPECT_EQ(a.find(645), found);
}

TEST(CacheArray, InvalidWaysPreferredAsVictims)
{
    CacheArray<Line> a(4_KiB, 4);
    for (unsigned i = 0; i < 4; ++i) {
        Line &v = a.victim(conflicting(a, i));
        EXPECT_FALSE(a.isValid(v));
        a.fill(v, conflicting(a, i));
    }
    // Set now full: next victim must be a valid line.
    Line &v = a.victim(conflicting(a, 4));
    EXPECT_TRUE(a.isValid(v));
}

TEST(CacheArray, LruEvictsLeastRecentlyTouched)
{
    CacheArray<Line> a(4_KiB, 4, ReplPolicy::Lru);
    for (unsigned i = 0; i < 4; ++i)
        a.fill(a.victim(conflicting(a, i)), conflicting(a, i));
    // Touch 0, 2, 3: block 1 becomes LRU.
    a.touch(*a.find(conflicting(a, 0)));
    a.touch(*a.find(conflicting(a, 2)));
    a.touch(*a.find(conflicting(a, 3)));
    EXPECT_EQ(a.blockOf(a.victim(conflicting(a, 4))), conflicting(a, 1));
}

TEST(CacheArray, InvalidateFreesLine)
{
    CacheArray<Line> a(4_KiB, 4);
    Line &v = a.victim(0);
    a.fill(v, 0);
    a.invalidate(v);
    EXPECT_EQ(a.find(0), nullptr);
    EXPECT_FALSE(a.isValid(v));
}

TEST(CacheArray, ForEachValidVisitsExactlyValidLines)
{
    CacheArray<Line> a(4_KiB, 4);
    a.fill(a.victim(0), 0);
    a.fill(a.victim(kBlockSize), kBlockSize);
    std::set<Addr> seen;
    a.forEachValid([&](Addr block, Line &) { seen.insert(block); });
    EXPECT_EQ(seen, (std::set<Addr>{0, kBlockSize}));
}

TEST(CacheArray, FreshArrayHasNoValidLines)
{
    CacheArray<Line> a(128_KiB, 8);
    std::size_t visited = 0;
    a.forEachValid([&](Addr, Line &) { ++visited; });
    EXPECT_EQ(visited, 0u);
    EXPECT_EQ(a.find(0), nullptr);
}

TEST(CacheArray, RefillConstructsPayloadAfterScribble)
{
    // fill() must construct the payload: a refilled way never exposes
    // what its previous occupant left behind.
    CacheArray<Line> a(4_KiB, 4);
    Line &v = a.victim(0);
    a.fill(v, 0);
    v.payload = 42;
    a.invalidate(v);
    Line &w = a.victim(conflicting(a, 1));
    ASSERT_EQ(&w, &v); // the freed way is the first invalid one
    a.fill(w, conflicting(a, 1));
    EXPECT_EQ(w.payload, Line{}.payload);
}

TEST(CacheArray, ForEachValidVisitsInIndexOrder)
{
    // Fill out of index order, across sets and ways of one set; the scan
    // reports set-major, way-minor order (the eADR crash-drain order).
    CacheArray<Line> a(4_KiB, 4);
    Addr set3 = 3 * kBlockSize;
    Addr set3_way1 = set3 + conflicting(a, 1);
    Addr set1 = 1 * kBlockSize;
    Addr set0 = 0;
    for (Addr b : {set3, set3_way1, set1, set0})
        a.fill(a.victim(b), b);
    std::vector<Addr> order;
    a.forEachValid([&](Addr block, const Line &) { order.push_back(block); });
    EXPECT_EQ(order, (std::vector<Addr>{set0, set1, set3, set3_way1}));
}

// ---------------------------------------------------------------------
// Parameterized over all replacement policies.
// ---------------------------------------------------------------------

class CacheArrayPolicy : public ::testing::TestWithParam<ReplPolicy>
{
};

TEST_P(CacheArrayPolicy, FullSetAlwaysYieldsValidVictim)
{
    CacheArray<Line> a(4_KiB, 4, GetParam());
    for (unsigned i = 0; i < 4; ++i)
        a.fill(a.victim(conflicting(a, i)), conflicting(a, i));
    for (unsigned round = 0; round < 20; ++round) {
        Line &v = a.victim(conflicting(a, 4 + round));
        EXPECT_TRUE(a.isValid(v));
        a.fill(v, conflicting(a, 4 + round));
    }
}

TEST_P(CacheArrayPolicy, FindNeverReturnsWrongBlock)
{
    CacheArray<Line> a(8_KiB, 4, GetParam());
    Rng rng(3);
    std::set<Addr> resident;
    for (int i = 0; i < 2000; ++i) {
        Addr block = blockAlign(rng.below(64) * kBlockSize);
        Line *found = a.find(block);
        if (found) {
            EXPECT_EQ(a.blockOf(*found), block);
        } else {
            Line &v = a.victim(block);
            if (a.isValid(v))
                resident.erase(a.blockOf(v));
            a.fill(v, block);
            resident.insert(block);
        }
    }
    // Every resident block is findable.
    for (Addr b : resident)
        EXPECT_NE(a.find(b), nullptr);
}

TEST_P(CacheArrayPolicy, CapacityNeverExceeded)
{
    CacheArray<Line> a(4_KiB, 4, GetParam());
    Rng rng(5);
    for (int i = 0; i < 500; ++i) {
        Addr block = blockAlign(rng.below(1024) * kBlockSize);
        if (!a.find(block)) {
            Line &v = a.victim(block);
            a.fill(v, block);
        }
        std::size_t valid = 0;
        a.forEachValid([&](Addr, Line &) { ++valid; });
        EXPECT_LE(valid, a.numLines());
    }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CacheArrayPolicy,
                         ::testing::Values(ReplPolicy::Lru,
                                           ReplPolicy::Random),
                         [](const auto &param_info) {
                             return replPolicyName(param_info.param);
                         });
