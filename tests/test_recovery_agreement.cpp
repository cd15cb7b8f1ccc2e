/**
 * @file
 * The consistency check and the repair agree, and the repair is
 * idempotent. For every registered workload, crash images get seeded
 * corruptions: bad checksums, null and wild pointers, a subtree aliased
 * under two parents, a meta count above the fanout, an interior node
 * with no entries, a torn skip-list head, plus random scribbles over the
 * live heap. On each damaged image:
 *
 *  - checkRecovery(image).consistent() holds exactly when recover() on a
 *    copy makes no repair and drops nothing;
 *  - the recovered image passes checkRecovery();
 *  - recovering the recovered image again makes no repair, no
 *    normalization and no drop, and leaves its fingerprint unchanged;
 *  - the outcome's verify count equals a fresh checkRecovery() of the
 *    recovered image, whether recovery reused its own walk's count (it
 *    wrote nothing) or walked again after a write;
 *  - the keys checkRecovery() collects in its counting walk, and those
 *    collectKeys() returns, equal the walk's own key reports.
 *
 * Wild pointers aim outside the machine, so the sanitizer presets also
 * see every walk read through them.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "api/system.hh"
#include "recover/recovery_manager.hh"
#include "sim/rng.hh"
#include "workloads/btree.hh"
#include "workloads/rtree.hh"
#include "workloads/skiplist.hh"
#include "workloads/workload.hh"

using namespace bbb;

namespace
{

constexpr std::uint64_t kWild = 0xdead'0000'beef'0000ull;

SystemConfig
smallCfg()
{
    SystemConfig c;
    c.num_cores = 2;
    c.l1d.size_bytes = 4_KiB;
    c.llc.size_bytes = 16_KiB;
    c.dram.size_bytes = 64_MiB;
    c.nvmm.size_bytes = 64_MiB;
    c.bbpb.entries = 8;
    c.mode = PersistMode::BbbMemSide;
    return c;
}

WorkloadParams
smallParams()
{
    WorkloadParams p;
    p.ops_per_thread = 150;
    p.initial_elements = 60;
    p.array_elements = 1 << 10;
    return p;
}

/** A crashed machine and the workload bound to it. */
struct Crashed
{
    explicit Crashed(const std::string &name)
        : sys(smallCfg()), wl(makeWorkload(name, smallParams()))
    {
        wl->install(sys);
        sys.runAndCrashAt(nsToTicks(30000));
        root_slot = sys.heap().rootAddr(0);
    }

    /** Thread 0's root pointer in @p img. */
    Addr root(const BackingStore &img) const { return img.read64(root_slot); }

    System sys;
    std::unique_ptr<Workload> wl;
    Addr root_slot = 0;
};

RecoverOutcome
recoverInPlace(const Crashed &c, BackingStore &img)
{
    RecoveryManager mgr(img, c.sys.addrMap(), c.sys.numCores());
    return mgr.recover(*c.wl);
}

void
expectSameCount(const RecoveryResult &a, const RecoveryResult &b,
                const std::string &what)
{
    EXPECT_EQ(a.checked, b.checked) << what;
    EXPECT_EQ(a.intact, b.intact) << what;
    EXPECT_EQ(a.torn, b.torn) << what;
    EXPECT_EQ(a.dangling, b.dangling) << what;
    EXPECT_EQ(a.oob, b.oob) << what;
}

/** Reference for the key collectors: the walk's key() reports. */
class KeyLog : public ImageWalk
{
  public:
    explicit KeyLog(unsigned threads) : keys(threads) {}

    void
    key(unsigned tid, std::uint64_t k) override
    {
        keys[tid].push_back(k);
    }

    std::vector<std::vector<std::uint64_t>> keys;
};

/** The properties on one damaged image. */
void
expectAgreement(const Crashed &c, const BackingStore &damaged,
                const std::string &what)
{
    RecoveryResult res = c.wl->checkRecovery(
        PmemImage(damaged, c.sys.addrMap()));

    // Only a keyed() workload's collectors report keys.
    KeyLog log(c.wl->boundEnd());
    if (c.wl->keyed())
        c.wl->walk(log, PmemImage(damaged, c.sys.addrMap()));
    std::vector<std::vector<std::uint64_t>> walked_keys, keys;
    expectSameCount(
        c.wl->checkRecovery(PmemImage(damaged, c.sys.addrMap()),
                            &walked_keys),
        res, what + ": counting walk with keys");
    EXPECT_EQ(walked_keys, log.keys) << what << ": counting walk's keys";
    c.wl->collectKeys(PmemImage(damaged, c.sys.addrMap()), keys);
    EXPECT_EQ(keys, log.keys) << what << ": collectKeys()";

    BackingStore once = damaged.clone();
    RecoverOutcome first = recoverInPlace(c, once);
    ASSERT_TRUE(first.resumable()) << what << ": " << first.detail;
    bool untouched = first.repairs == 0 && first.dropped == 0;
    EXPECT_EQ(res.consistent(), untouched)
        << what << ": check says " << (res.consistent() ? "" : "in")
        << "consistent (torn " << res.torn << ", dangling "
        << res.dangling << ", oob " << res.oob << ") but recover made "
        << first.repairs << " repair(s) and dropped " << first.dropped;

    RecoveryResult after =
        c.wl->checkRecovery(PmemImage(once, c.sys.addrMap()));
    EXPECT_TRUE(after.consistent())
        << what << ": recovered image fails the check";
    expectSameCount(first.verify, after, what + ": verify");

    BackingStore twice = once.clone();
    RecoverOutcome second = recoverInPlace(c, twice);
    EXPECT_EQ(second.repairs, 0u) << what << ": second recovery repaired";
    EXPECT_EQ(second.dropped, 0u) << what << ": second recovery dropped";
    EXPECT_EQ(second.normalized, 0u)
        << what << ": second recovery normalized";
    EXPECT_EQ(twice.fingerprint(), once.fingerprint())
        << what << ": second recovery changed the image";
    expectSameCount(second.verify, after, what + ": second verify");
}

/** Damage one image in place; false if the structure is too small. */
using Corrupt = std::function<bool(const Crashed &, BackingStore &)>;

void
expectAgreementAfter(const std::string &name, const std::string &what,
                     const Corrupt &corrupt)
{
    Crashed c(name);
    BackingStore img = c.sys.image().clone();
    ASSERT_TRUE(corrupt(c, img)) << name << " " << what
                                 << ": structure too small to corrupt";
    expectAgreement(c, img, name + " " + what);
}

/**
 * Overwrite eight words at a seeded spot of each arena's live span with
 * garbage, nulls, wild pointers and 8-aligned pointers back into it.
 */
void
scribble(BackingStore &img, const PersistentHeap &heap, std::uint64_t seed)
{
    Rng rng(seed);
    for (unsigned a = 0; a < heap.arenas(); ++a) {
        Addr base = heap.arenaBase(a);
        std::uint64_t live = heap.frontier(a) - base;
        if (live < 64)
            continue;
        Addr at = base + (rng.below(live - 64) & ~7ull);
        for (unsigned w = 0; w < 8; ++w) {
            std::uint64_t v = 0;
            switch (rng.below(4)) {
              case 0:
                v = rng.next();
                break;
              case 1:
                break;
              case 2:
                v = kWild;
                break;
              default:
                v = base + (rng.below(live) & ~7ull);
                break;
            }
            img.write64(at + 8 * w, v);
        }
    }
}

class EveryWorkload : public ::testing::TestWithParam<std::string>
{
};

} // namespace

TEST_P(EveryWorkload, UndamagedCrashImageNeedsNoRepair)
{
    Crashed c(GetParam());
    expectAgreement(c, c.sys.image(), GetParam() + " undamaged");
    EXPECT_TRUE(c.wl->checkRecovery(c.sys.pmemImage()).consistent());
}

TEST_P(EveryWorkload, ScribbledImagesAgreeAndRecoverIdempotently)
{
    Crashed c(GetParam());
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        BackingStore img = c.sys.image().clone();
        scribble(img, c.sys.heap(), seed);
        expectAgreement(c, img,
                        GetParam() + " scribble " + std::to_string(seed));
    }
}

TEST_P(EveryWorkload, WildRootAgrees)
{
    expectAgreementAfter(GetParam(), "wild root",
                         [](const Crashed &c, BackingStore &img) {
                             img.write64(c.root_slot, kWild);
                             return true;
                         });
}

INSTANTIATE_TEST_SUITE_P(
    Registered, EveryWorkload,
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
// Targeted damage, one layout at a time.
// ---------------------------------------------------------------------

TEST(RecoveryAgreement, LinkedListBadChecksumAndWildNext)
{
    // Node: {key, checksum, next}.
    expectAgreementAfter("linkedlist", "bad checksum",
                         [](const Crashed &c, BackingStore &img) {
                             Addr head = c.root(img);
                             img.write64(head + 8, img.read64(head + 8) ^ 1);
                             return head != 0;
                         });
    expectAgreementAfter("linkedlist", "wild next",
                         [](const Crashed &c, BackingStore &img) {
                             Addr head = c.root(img);
                             img.write64(head + 16, kWild);
                             return head != 0;
                         });
}

TEST(RecoveryAgreement, HashmapNullBucketArrayAndWildChain)
{
    expectAgreementAfter("hashmap", "null bucket array",
                         [](const Crashed &c, BackingStore &img) {
                             img.write64(c.root_slot, 0);
                             return true;
                         });
    expectAgreementAfter("hashmap", "wild chain link",
                         [](const Crashed &c, BackingStore &img) {
                             Addr buckets = c.root(img);
                             for (Addr b = buckets;; b += 8) {
                                 Addr node = img.read64(b);
                                 if (node != 0) {
                                     img.write64(node + 16, kWild);
                                     return true;
                                 }
                             }
                         });
}

TEST(RecoveryAgreement, SkiplistTornHead)
{
    // The head's checksum and height are part of its soundness: recovery
    // rebuilds a head that fails either, so the check must reject it.
    expectAgreementAfter("skiplist", "head checksum",
                         [](const Crashed &c, BackingStore &img) {
                             Addr head = c.root(img);
                             Addr sum = head + SkiplistWorkload::kOffSum;
                             img.write64(sum, img.read64(sum) ^ 1);
                             return head != 0;
                         });
    expectAgreementAfter("skiplist", "head height",
                         [](const Crashed &c, BackingStore &img) {
                             Addr head = c.root(img);
                             img.write64(head + SkiplistWorkload::kOffHeight,
                                         3);
                             return head != 0;
                         });
}

TEST(RecoveryAgreement, SkiplistBadMemberAndWildAccelerator)
{
    using S = SkiplistWorkload;
    expectAgreementAfter("skiplist", "bad member checksum",
                         [](const Crashed &c, BackingStore &img) {
                             Addr first =
                                 img.read64(c.root(img) + S::kOffNext);
                             img.write64(first + S::kOffSum, 0);
                             return first != 0;
                         });
    expectAgreementAfter("skiplist", "wild accelerator",
                         [](const Crashed &c, BackingStore &img) {
                             Addr head = c.root(img);
                             img.write64(head + S::kOffNext + 8 * 5, kWild);
                             return head != 0;
                         });
}

TEST(RecoveryAgreement, CtreeBadChecksumAndWildChild)
{
    // Node: {key, checksum, left, right}.
    expectAgreementAfter("ctree", "bad checksum",
                         [](const Crashed &c, BackingStore &img) {
                             Addr root = c.root(img);
                             Addr left = img.read64(root + 16);
                             img.write64(left + 8, img.read64(left + 8) ^ 1);
                             return left != 0;
                         });
    expectAgreementAfter("ctree", "wild child",
                         [](const Crashed &c, BackingStore &img) {
                             Addr root = c.root(img);
                             img.write64(root + 24, kWild);
                             return root != 0;
                         });
}

TEST(RecoveryAgreement, RbtreeAliasedSubtree)
{
    // Node: {key, checksum, left, right, parent|color}. Hang the root's
    // left subtree a second time from a null child slot on the right
    // side: recovery keeps the first occurrence and cuts the alias, so
    // the check must not count the subtree twice and call it sound.
    expectAgreementAfter("rtree", "aliased subtree",
                         [](const Crashed &c, BackingStore &img) {
                             Addr root = c.root(img);
                             Addr left = img.read64(root + 16);
                             Addr n = img.read64(root + 24);
                             if (left == 0 || n == 0)
                                 return false;
                             while (img.read64(n + 16) != 0)
                                 n = img.read64(n + 16);
                             img.write64(n + 16, left);
                             return true;
                         });
    expectAgreementAfter("rtree", "bad checksum",
                         [](const Crashed &c, BackingStore &img) {
                             Addr root = c.root(img);
                             img.write64(root + 8, img.read64(root + 8) ^ 1);
                             return root != 0;
                         });
}

TEST(RecoveryAgreement, BtreeMetaAboveFanoutAndNullChild)
{
    using B = BtreeWorkload;
    expectAgreementAfter("btree", "meta above fanout",
                         [](const Crashed &c, BackingStore &img) {
                             Addr root = c.root(img);
                             std::uint64_t meta = img.read64(root);
                             img.write64(root, (meta & ~0xffffffffull) |
                                                   (B::kFanout + 1));
                             return root != 0;
                         });
    expectAgreementAfter("btree", "null interior child",
                         [](const Crashed &c, BackingStore &img) {
                             Addr root = c.root(img);
                             if ((img.read64(root) >> 32) & 1)
                                 return false; // root is a leaf
                             img.write64(root + B::kChildOff + 8, 0);
                             return true;
                         });
    expectAgreementAfter("btree", "bad leaf checksum",
                         [](const Crashed &c, BackingStore &img) {
                             Addr n = c.root(img);
                             while (!((img.read64(n) >> 32) & 1))
                                 n = img.read64(n + B::kChildOff);
                             Addr sum = n + B::kKeysOff + 16 + 8;
                             img.write64(sum, img.read64(sum) ^ 1);
                             return (img.read64(n) & 0xffffffffu) > 1;
                         });
}

TEST(RecoveryAgreement, RtreeEmptyInterior)
{
    // Meta word: (is_leaf << 32) | count; entry i at +8 + 40*i with the
    // child pointer (interior) or rectangle checksum (leaf) at +32.
    // Recovery cannot keep an interior node with no entries (a resumed
    // insert needs a subtree to descend into), so the check must reject
    // one too.
    expectAgreementAfter("rtree-spatial", "empty interior root",
                         [](const Crashed &c, BackingStore &img) {
                             Addr root = c.root(img);
                             img.write64(root, 0);
                             return root != 0;
                         });
    expectAgreementAfter("rtree-spatial", "meta above fanout",
                         [](const Crashed &c, BackingStore &img) {
                             Addr root = c.root(img);
                             std::uint64_t meta = img.read64(root);
                             img.write64(root,
                                         (meta & ~0xffffffffull) |
                                             (RtreeWorkload::kFanout + 1));
                             return root != 0;
                         });
    expectAgreementAfter("rtree-spatial", "wild child",
                         [](const Crashed &c, BackingStore &img) {
                             Addr root = c.root(img);
                             if ((img.read64(root) >> 32) & 1)
                                 return false; // root is a leaf
                             img.write64(root + 8 + 40 + 32, kWild);
                             return true;
                         });
}

TEST(RecoveryAgreement, ArrayTornElementAndNullBase)
{
    expectAgreementAfter("mutateC", "torn element",
                         [](const Crashed &c, BackingStore &img) {
                             Addr base = c.root(img);
                             img.write64(base + 8 * 7,
                                         img.read64(base + 8 * 7) ^ 1);
                             return base != 0;
                         });
    expectAgreementAfter("swapNC", "null base",
                         [](const Crashed &c, BackingStore &img) {
                             img.write64(c.root_slot, 0);
                             return true;
                         });
}
