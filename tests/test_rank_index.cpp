/**
 * @file
 * Tests for the rank index behind the rtree and ctree prebuilds
 * (src/workloads/rank_index.hh): the stable ranking, the rank set's
 * neighbour queries at its word edges, and indexed prebuilds that must
 * leave the same arena, word for word, as inserts that walk the tree.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

#include "api/system.hh"
#include "workloads/ctree.hh"
#include "workloads/rank_index.hh"
#include "workloads/rbtree.hh"

using namespace bbb;

namespace
{

constexpr std::uint32_t kNone = RankSet::kNone;

/** The ranks a stable sort of @p keys gives: the reference for rankKeys. */
std::vector<std::uint32_t>
stableRanks(const std::vector<std::uint64_t> &keys)
{
    std::vector<std::uint32_t> order(keys.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return keys[a] < keys[b];
                     });
    std::vector<std::uint32_t> rank(keys.size());
    for (std::uint32_t r = 0; r < order.size(); ++r)
        rank[order[r]] = r;
    return rank;
}

SystemConfig
oneCore()
{
    SystemConfig cfg;
    cfg.num_cores = 1;
    cfg.dram.size_bytes = 64_MiB;
    cfg.nvmm.size_bytes = 64_MiB;
    return cfg;
}

/**
 * Build arena 0 of two machines from @p keys: through an ArenaImage with
 * @p prebuild, and word by word through an ImageAccessor with one
 * walking @p insert per key. Then compare the arenas word for word, and
 * the root slot.
 */
template <class Prebuild, class Insert>
void
expectIndexedBuildMatchesWalk(const std::vector<std::uint64_t> &keys,
                              Prebuild prebuild, Insert insert)
{
    System flat(oneCore()), ref(oneCore());
    Addr root = flat.heap().rootAddr(0);

    ArenaImage m(flat.image(), flat.heap());
    m.open(0);
    m.st(root, 0);
    prebuild(m, flat.heap(), 0, root, keys);
    m.commit();

    ImageAccessor w(ref.image());
    w.st(root, 0);
    for (std::uint64_t k : keys)
        insert(w, ref.heap(), 0, root, k);

    PersistentHeap &heap = flat.heap();
    ASSERT_EQ(heap.frontier(0), ref.heap().frontier(0));
    ASSERT_GT(heap.allocated(0), 0u);
    Addr lo = (heap.arenaBase(0) + 7) & ~Addr{7};
    for (Addr a = lo; a < heap.frontier(0); a += 8)
        ASSERT_EQ(flat.image().read64(a), ref.image().read64(a))
            << "word " << (a - lo) / 8;
    EXPECT_EQ(flat.image().read64(root), ref.image().read64(root));
    EXPECT_EQ(flat.image().fingerprint(), ref.image().fingerprint());
}

} // namespace

TEST(RankKeys, MatchesAStableSort)
{
    // Random keys (about one a bucket after the bucket pass), and keys
    // full of duplicates or differing only in their top byte, which
    // crowd a few buckets and leave the insertion sort most of the work.
    Rng rng(0x4a9c);
    std::vector<std::uint64_t> random(3000), dups(3000), top(3000);
    for (std::size_t i = 0; i < random.size(); ++i) {
        random[i] = rng.next();
        dups[i] = rng.next() % 64;
        top[i] = (rng.next() % 7) << 56;
    }
    for (const auto *keys : {&random, &dups, &top})
        EXPECT_EQ(rankKeys(*keys), stableRanks(*keys));
    EXPECT_TRUE(rankKeys({}).empty());
}

TEST(RankKeys, EqualKeysRankInDrawOrder)
{
    EXPECT_EQ(rankKeys({5, 5, 5}), (std::vector<std::uint32_t>{0, 1, 2}));
    EXPECT_EQ(rankKeys({9, 2, 9, 2, ~0ull}),
              (std::vector<std::uint32_t>{2, 0, 3, 1, 4}));
}

TEST(RankSet, EmptySetHasNoNeighbours)
{
    RankSet set(200);
    for (std::uint32_t r : {0u, 63u, 64u, 199u}) {
        EXPECT_EQ(set.prev(r), kNone) << r;
        EXPECT_EQ(set.next(r), kNone) << r;
    }
}

TEST(RankSet, NeighboursAcrossWordEdges)
{
    // Ranks 0, 63, 64 and n - 1: the first and last bit of a word, the
    // first bit of the next, and the set's last rank.
    const std::uint32_t n = 200;
    RankSet set(n);
    for (std::uint32_t r : {0u, 63u, 64u, n - 1})
        set.insert(r);
    EXPECT_EQ(set.prev(0), kNone);
    EXPECT_EQ(set.next(0), 63u);
    EXPECT_EQ(set.prev(63), 0u);
    EXPECT_EQ(set.next(63), 64u);
    EXPECT_EQ(set.prev(64), 63u);
    EXPECT_EQ(set.next(64), n - 1);
    EXPECT_EQ(set.prev(n - 1), 64u);
    EXPECT_EQ(set.next(n - 1), kNone);
    // Between members, including a whole empty word (128..191).
    EXPECT_EQ(set.prev(1), 0u);
    EXPECT_EQ(set.next(1), 63u);
    EXPECT_EQ(set.prev(150), 64u);
    EXPECT_EQ(set.next(150), n - 1);
}

TEST(RankSet, MatchesAnOrderedSet)
{
    // 600 members among 12,365 ranks: most words are empty, so the
    // queries scan across runs of empty words.
    const std::uint32_t n = 3 * 4096 + 77;
    RankSet set(n);
    std::set<std::uint32_t> ref;
    Rng rng(0x5e7);
    for (unsigned i = 0; i < 600; ++i) {
        auto r = static_cast<std::uint32_t>(rng.below(n));
        set.insert(r);
        ref.insert(r);
        auto q = static_cast<std::uint32_t>(rng.below(n));
        auto above = ref.upper_bound(q);
        auto below = ref.lower_bound(q);
        EXPECT_EQ(set.next(q), above == ref.end() ? kNone : *above) << q;
        EXPECT_EQ(set.prev(q), below == ref.begin() ? kNone : *--below)
            << q;
    }
}

TEST(RankIndexPrebuild, DuplicateKeysMatchTheWalk)
{
    // Keys mod 64: every key repeats, and the walk sends each repeat
    // right of the equal keys already in the tree.
    Rng rng(0xd0b1e);
    std::vector<std::uint64_t> keys(3000);
    for (std::uint64_t &k : keys)
        k = rng.next() % 64;
    {
        SCOPED_TRACE("rtree");
        expectIndexedBuildMatchesWalk(keys, RbtreeWorkload::prebuild,
                                      RbtreeWorkload::insert);
    }
    {
        SCOPED_TRACE("ctree");
        expectIndexedBuildMatchesWalk(keys, CtreeWorkload::prebuild,
                                      CtreeWorkload::insert);
    }
}

TEST(RankIndexPrebuild, SortedAndReversedKeysMatchTheWalk)
{
    // The shapes random keys never make: every insert at one end of the
    // in-order sequence (a chain for ctree, rotation after rotation for
    // rtree).
    std::vector<std::uint64_t> up(500), down(500);
    for (std::size_t i = 0; i < up.size(); ++i) {
        up[i] = i;
        down[i] = up.size() - i;
    }
    for (const auto *keys : {&up, &down}) {
        expectIndexedBuildMatchesWalk(*keys, RbtreeWorkload::prebuild,
                                      RbtreeWorkload::insert);
        expectIndexedBuildMatchesWalk(*keys, CtreeWorkload::prebuild,
                                      CtreeWorkload::insert);
    }
}
