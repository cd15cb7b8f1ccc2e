/**
 * @file
 * Structure-level tests for the tree workloads, run against the
 * functional (image) accessor so the data-structure logic is checked
 * independent of timing: BST ordering, red-black balance, R-tree
 * bounding-rectangle containment, and split behaviour.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "api/system.hh"
#include "workloads/ctree.hh"
#include "workloads/rbtree.hh"
#include "workloads/rtree.hh"

using namespace bbb;

namespace
{

struct Rig
{
    SystemConfig cfg;
    System sys;
    ImageAccessor img;

    Rig() : cfg(makeCfg()), sys(cfg), img(sys.image()) {}

    static SystemConfig
    makeCfg()
    {
        SystemConfig cfg;
        cfg.num_cores = 1;
        cfg.dram.size_bytes = 64_MiB;
        cfg.nvmm.size_bytes = 64_MiB;
        return cfg;
    }

    Addr root() { return sys.heap().rootAddr(0); }
};

/** In-order walk of a ctree/rbtree-shaped node (key at +0, children at
 *  +16/+24), collecting keys. */
void
inorder(ImageAccessor &img, Addr node, std::vector<std::uint64_t> &out,
        unsigned depth = 0)
{
    ASSERT_LT(depth, 200u) << "tree too deep / cyclic";
    if (node == 0)
        return;
    inorder(img, img.ld(node + 16), out, depth + 1);
    out.push_back(img.ld(node));
    inorder(img, img.ld(node + 24), out, depth + 1);
}

unsigned
treeHeight(ImageAccessor &img, Addr node)
{
    if (node == 0)
        return 0;
    return 1 + std::max(treeHeight(img, img.ld(node + 16)),
                        treeHeight(img, img.ld(node + 24)));
}

} // namespace

TEST(CtreeStructure, InOrderIsSorted)
{
    Rig rig;
    Rng rng(5);
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 500; ++i) {
        std::uint64_t k = rng.next();
        keys.push_back(k);
        CtreeWorkload::insert(rig.img, rig.sys.heap(), 0, rig.root(), k);
    }
    std::vector<std::uint64_t> walked;
    inorder(rig.img, rig.img.ld(rig.root()), walked);
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(walked, keys);
}

TEST(CtreeStructure, DuplicateKeysAreKept)
{
    Rig rig;
    for (int i = 0; i < 5; ++i)
        CtreeWorkload::insert(rig.img, rig.sys.heap(), 0, rig.root(), 42);
    std::vector<std::uint64_t> walked;
    inorder(rig.img, rig.img.ld(rig.root()), walked);
    EXPECT_EQ(walked.size(), 5u);
}

TEST(RbtreeStructure, InOrderIsSorted)
{
    Rig rig;
    Rng rng(7);
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 500; ++i) {
        std::uint64_t k = rng.next();
        keys.push_back(k);
        RbtreeWorkload::insert(rig.img, rig.sys.heap(), 0, rig.root(), k);
    }
    std::vector<std::uint64_t> walked;
    inorder(rig.img, rig.img.ld(rig.root()), walked);
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(walked, keys);
}

TEST(RbtreeStructure, StaysBalancedUnderSortedInsertion)
{
    // Sorted keys are the BST worst case; a red-black tree must stay
    // logarithmic (<= 2*log2(n+1)).
    Rig rig;
    const unsigned n = 1024;
    for (unsigned i = 0; i < n; ++i)
        RbtreeWorkload::insert(rig.img, rig.sys.heap(), 0, rig.root(), i);
    unsigned height = treeHeight(rig.img, rig.img.ld(rig.root()));
    EXPECT_LE(height, 2 * 11u); // 2*log2(1025) ~ 20
    // And a plain BST check: still sorted.
    std::vector<std::uint64_t> walked;
    inorder(rig.img, rig.img.ld(rig.root()), walked);
    ASSERT_EQ(walked.size(), n);
    EXPECT_TRUE(std::is_sorted(walked.begin(), walked.end()));
}

TEST(RbtreeStructure, RootIsBlackAndRedsHaveBlackChildren)
{
    Rig rig;
    Rng rng(11);
    for (int i = 0; i < 300; ++i)
        RbtreeWorkload::insert(rig.img, rig.sys.heap(), 0, rig.root(),
                               rng.next());

    auto is_red = [&](Addr node) {
        return node != 0 && (rig.img.ld(node + 32) & 1);
    };
    Addr root = rig.img.ld(rig.root());
    EXPECT_FALSE(is_red(root));

    // No red node has a red child (red-black invariant 4).
    std::vector<Addr> stack{root};
    while (!stack.empty()) {
        Addr node = stack.back();
        stack.pop_back();
        if (node == 0)
            continue;
        Addr left = rig.img.ld(node + 16);
        Addr right = rig.img.ld(node + 24);
        if (is_red(node)) {
            EXPECT_FALSE(is_red(left));
            EXPECT_FALSE(is_red(right));
        }
        stack.push_back(left);
        stack.push_back(right);
    }
}

// ---------------------------------------------------------------------
// Spatial R-tree structure.
// ---------------------------------------------------------------------

namespace
{

struct RtreeWalk
{
    std::uint64_t leaf_entries = 0;
    std::uint64_t nodes = 0;
    bool containment_ok = true;
};

void
walkRtree(ImageAccessor &img, Addr node, RtreeWalk &w,
          const RtreeWorkload::Rect *parent_rect, unsigned depth = 0)
{
    ASSERT_LT(depth, 48u);
    if (node == 0)
        return;
    ++w.nodes;
    std::uint64_t meta = img.ld(node);
    bool is_leaf = (meta >> 32) & 1;
    unsigned count = static_cast<unsigned>(meta & 0xffffffffu);
    ASSERT_LE(count, RtreeWorkload::kFanout);
    for (unsigned i = 0; i < count; ++i) {
        Addr e = node + 8 + 40ull * i;
        RtreeWorkload::Rect r;
        r.x1 = static_cast<std::int64_t>(img.ld(e + 0));
        r.y1 = static_cast<std::int64_t>(img.ld(e + 8));
        r.x2 = static_cast<std::int64_t>(img.ld(e + 16));
        r.y2 = static_cast<std::int64_t>(img.ld(e + 24));
        EXPECT_LE(r.x1, r.x2);
        EXPECT_LE(r.y1, r.y2);
        if (parent_rect) {
            // Every entry rectangle lies within its parent's rectangle.
            if (r.x1 < parent_rect->x1 || r.y1 < parent_rect->y1 ||
                r.x2 > parent_rect->x2 || r.y2 > parent_rect->y2) {
                w.containment_ok = false;
            }
        }
        if (is_leaf) {
            ++w.leaf_entries;
        } else {
            Addr child = img.ld(e + 32);
            walkRtree(img, child, w, &r, depth + 1);
        }
    }
}

} // namespace

TEST(RtreeSpatialStructure, AllPointsRetainedAndContained)
{
    Rig rig;
    Rng rng(13);
    const unsigned n = 800;
    for (unsigned i = 0; i < n; ++i) {
        auto x = static_cast<std::int64_t>(rng.below(1 << 16));
        auto y = static_cast<std::int64_t>(rng.below(1 << 16));
        RtreeWorkload::insert(rig.img, rig.sys.heap(), 0, rig.root(), x, y);
    }
    RtreeWalk w;
    walkRtree(rig.img, rig.img.ld(rig.root()), w, nullptr);
    EXPECT_EQ(w.leaf_entries, n);
    EXPECT_TRUE(w.containment_ok)
        << "a child rectangle escaped its parent MBR";
    // Splits must actually have happened for n >> fanout.
    EXPECT_GT(w.nodes, n / RtreeWorkload::kFanout / 2);
}

TEST(RtreeSpatialStructure, SingleInsertMakesALeafRoot)
{
    Rig rig;
    RtreeWorkload::insert(rig.img, rig.sys.heap(), 0, rig.root(), 5, 7);
    Addr root = rig.img.ld(rig.root());
    ASSERT_NE(root, 0u);
    std::uint64_t meta = rig.img.ld(root);
    EXPECT_TRUE((meta >> 32) & 1); // leaf
    EXPECT_EQ(meta & 0xffffffffu, 1u);
}

TEST(RtreeSpatialStructure, RootSplitGrowsTree)
{
    Rig rig;
    // kFanout+1 inserts force exactly one root split.
    for (unsigned i = 0; i <= RtreeWorkload::kFanout; ++i) {
        RtreeWorkload::insert(rig.img, rig.sys.heap(), 0, rig.root(),
                              static_cast<std::int64_t>(i * 100),
                              static_cast<std::int64_t>(i * 100));
    }
    Addr root = rig.img.ld(rig.root());
    std::uint64_t meta = rig.img.ld(root);
    EXPECT_FALSE((meta >> 32) & 1); // interior root now
    EXPECT_EQ(meta & 0xffffffffu, 2u);
    RtreeWalk w;
    walkRtree(rig.img, root, w, nullptr);
    EXPECT_EQ(w.leaf_entries, RtreeWorkload::kFanout + 1);
    EXPECT_TRUE(w.containment_ok);
}

TEST(RtreeSpatialStructure, RectEnlargementMath)
{
    RtreeWorkload::Rect r{10, 10, 20, 20};
    EXPECT_TRUE(r.contains(15, 15));
    EXPECT_TRUE(r.contains(10, 20));
    EXPECT_FALSE(r.contains(9, 15));
    EXPECT_EQ(r.enlargement(15, 15), 0u);
    // Growing to (30, 15): area 20x10=200 vs 10x10=100 -> +100.
    EXPECT_EQ(r.enlargement(30, 15), 100u);
}

// ---------------------------------------------------------------------
// B-tree structure.
// ---------------------------------------------------------------------

#include "api/experiment.hh"
#include "workloads/btree.hh"

namespace
{

void
btreeKeys(ImageAccessor &img, Addr node, std::vector<std::uint64_t> &out,
          unsigned depth = 0)
{
    ASSERT_LT(depth, 48u);
    if (node == 0)
        return;
    std::uint64_t meta = img.ld(node);
    bool is_leaf = (meta >> 32) & 1;
    unsigned count = static_cast<unsigned>(meta & 0xffffffffu);
    ASSERT_LE(count, BtreeWorkload::kFanout);
    for (unsigned i = 0; i < count; ++i) {
        if (!is_leaf) {
            btreeKeys(img,
                      img.ld(node + BtreeWorkload::kChildOff + 8ull * i),
                      out, depth + 1);
        }
        if (is_leaf)
            out.push_back(img.ld(node + BtreeWorkload::kKeysOff + 16ull * i));
    }
    if (!is_leaf) {
        btreeKeys(img,
                  img.ld(node + BtreeWorkload::kChildOff + 8ull * count),
                  out, depth + 1);
    }
}

} // namespace

TEST(BtreeStructure, LeafScanIsSortedAndComplete)
{
    Rig rig;
    Rng rng(17);
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 700; ++i) {
        std::uint64_t k = rng.next();
        keys.push_back(k);
        BtreeWorkload::insert(rig.img, rig.sys.heap(), 0, rig.root(), k);
    }
    std::vector<std::uint64_t> walked;
    btreeKeys(rig.img, rig.img.ld(rig.root()), walked);
    std::sort(keys.begin(), keys.end());
    // B+-style: every inserted key lives in a leaf, in sorted order.
    EXPECT_EQ(walked, keys);
}

TEST(BtreeStructure, SortedInsertionStaysShallow)
{
    Rig rig;
    const unsigned n = 1000;
    for (unsigned i = 0; i < n; ++i)
        BtreeWorkload::insert(rig.img, rig.sys.heap(), 0, rig.root(), i);
    // Height <= log_{fanout/2}(n) + 1 ~ 6 for n=1000, fanout 8.
    unsigned depth = 0;
    Addr node = rig.img.ld(rig.root());
    while (node != 0) {
        std::uint64_t meta = rig.img.ld(node);
        if ((meta >> 32) & 1)
            break;
        node = rig.img.ld(node + BtreeWorkload::kChildOff);
        ++depth;
    }
    EXPECT_LE(depth, 8u);
}

TEST(BtreeStructure, BenchSizedTreeFitsItsArena)
{
    // Copy-on-write leaf inserts leave each replaced leaf in the bump
    // heap. A benchParams()-sized tree on the 8-core benchConfig()
    // machine, which run_experiment builds btree on, must still fit one
    // arena.
    SystemConfig cfg = benchConfig(PersistMode::BbbMemSide);
    AddrMap map = AddrMap::fromConfig(cfg);
    PersistentHeap heap(map, cfg.num_cores);
    BackingStore store;
    ImageAccessor img(store);
    WorkloadParams p = benchParams();
    Rng rng(p.seed);
    for (std::uint64_t i = 0; i < p.initial_elements + p.ops_per_thread; ++i)
        BtreeWorkload::insert(img, heap, 0, heap.rootAddr(0), rng.next());
    EXPECT_LT(heap.allocated(0), heap.arenaSize());
}
