/**
 * @file
 * Extension workload `btree`: random-key insertion into a persistent
 * B-tree, one tree per thread. (The paper's prose names btree among its
 * structures — "rtree, btree, and hashmap" — matching the pmembench
 * suite; we provide it alongside the Table IV set.)
 *
 * A fanout-8 B-tree with classic split-on-full insertion. Node layout:
 *
 *   +0              meta word: (is_leaf << 32) | key_count
 *   +8  + 16*i      key slot i: {key, checksum(key)}        (leaves)
 *   +8  + 16*i      key slot i: {key, _pad}                 (interior)
 *   +136 + 8*i      child pointer i (interior only, count+1 children)
 *
 * Node size = 8 + 8*16 + 9*8 = 208 B. The meta word is the commit point:
 * new/updated slots persist before the count that publishes them, and
 * split-off siblings persist before the parent entry that links them.
 * Leaf inserts are copy-on-write (a fresh leaf, then one parent-pointer
 * store), so no published checksummed slot is ever rewritten in place.
 * Strict persist ordering thus keeps every crash point structurally
 * sound.
 *
 * Heap footprint: the bump heap never reclaims a replaced leaf, so each
 * insert costs one node (256 B of arena at 64-B alignment) on top of
 * the nodes splits add, about 310 B per key against 54 B in place. A
 * benchParams() tree (104,000 keys) takes 32 MB of its arena: it fits
 * benchConfig()'s 64 MiB arenas at 8 cores, but not an arena of that
 * heap split 17 or more ways.
 */

#ifndef BBB_WORKLOADS_BTREE_HH
#define BBB_WORKLOADS_BTREE_HH

#include <optional>

#include "workloads/workload.hh"

namespace bbb
{

/** Per-thread persistent B-tree insertion workload. */
class BtreeWorkload : public Workload
{
  public:
    static constexpr unsigned kFanout = 8; ///< max keys per node
    static constexpr std::uint64_t kKeysOff = 8;
    static constexpr std::uint64_t kChildOff = 8 + 16ull * kFanout;
    static constexpr std::uint64_t kNodeBytes = kChildOff + 8ull * (kFanout + 1);

    explicit BtreeWorkload(const WorkloadParams &p) : Workload(p) {}

    const char *name() const override { return "btree"; }
    void prepare(System &sys) override;
    void runThread(ThreadContext &tc, unsigned tid) override;
    void walk(ImageWalk &w, const PmemImage &img) const override;

    /** One insert through an arbitrary accessor. */
    static void insert(MemAccessor &m, PersistentHeap &heap, unsigned arena,
                       Addr root_slot, std::uint64_t key);

  private:
    /**
     * Walk the subtree at @p node, keeping its sound part. Returns the
     * damage that makes @p node itself unusable, having reported nothing
     * below it; the caller then cuts its own link to the node.
     */
    std::optional<ImageWalk::Damage>
    walkNode(ImageWalk &w, const PmemImage &img, unsigned tid, Addr node,
             unsigned depth) const;
};

} // namespace bbb

#endif // BBB_WORKLOADS_BTREE_HH
