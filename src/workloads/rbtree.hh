/**
 * @file
 * Table IV `rtree`: random-key insertion into a persistent red-black
 * tree, one tree per thread.
 *
 * The paper's rtree/ctree/btree/hashmap workload set mirrors the pmdk
 * (libpmemobj) pmembench data structures, where the "r" tree is the
 * red-black tree; we implement it accordingly (DESIGN.md records this
 * interpretation; a bounding-rectangle spatial R-tree is also provided as
 * the extension workload `rtree-spatial`).
 *
 * Node layout (40 B, one cache block):
 *   +0  key
 *   +8  checksum(key)
 *   +16 left
 *   +24 right
 *   +32 parent | color (bit 0)
 *
 * New nodes are persisted before they are linked. Rebalancing rotations
 * and recolorings are plain persisting stores: with strict persist
 * ordering every crash point is a structurally valid binary search tree
 * (parent/color words are only rebalancing hints, which recovery
 * re-derives rather than trusts).
 */

#ifndef BBB_WORKLOADS_RBTREE_HH
#define BBB_WORKLOADS_RBTREE_HH

#include <set>

#include "workloads/workload.hh"

namespace bbb
{

/** Per-thread persistent red-black-tree insertion workload. */
class RbtreeWorkload : public Workload
{
  public:
    explicit RbtreeWorkload(const WorkloadParams &p) : Workload(p) {}

    const char *name() const override { return "rtree"; }
    void prepare(System &sys) override;
    void runThread(ThreadContext &tc, unsigned tid) override;
    void walk(ImageWalk &w, const PmemImage &img) const override;

    /** One insert through an arbitrary accessor. */
    static void insert(MemAccessor &m, PersistentHeap &heap, unsigned arena,
                       Addr root_slot, std::uint64_t key);

  private:
    void walkSubtree(ImageWalk &w, const PmemImage &img, unsigned tid,
                     Addr link, Addr parent, unsigned depth,
                     std::set<Addr> &visited) const;
};

} // namespace bbb

#endif // BBB_WORKLOADS_RBTREE_HH
