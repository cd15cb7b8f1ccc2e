/**
 * @file
 * Extension workload `rtree-spatial`: trajectory point insertion into a
 * persistent bounding-rectangle R-tree, one tree per thread. (The paper's
 * Table IV "rtree" is the pmembench red-black tree — see rbtree.hh; this
 * spatial index is kept as a stress workload whose geometric block-reuse
 * ladder probes the bbPB-size/coalescing trade-off, see the ablation
 * bench.)
 *
 * A fixed-fanout (8) R-tree over 2D integer points. Node layout:
 *
 *   +0              meta word: (is_leaf << 32) | entry_count
 *   +8 + 40*i       entry i: {x1, y1, x2, y2, tag}
 *
 * For leaf entries the tag is a checksum of the rectangle (a point is a
 * degenerate rectangle); for inner entries it is the child pointer. The
 * meta word is the commit point: entries are persisted before the count
 * that makes them visible, and nodes created by splits are persisted
 * before the parent entry that publishes them. Crashing between a split's
 * halves can orphan entries (losing insertions) but never produces a
 * structurally torn tree — transaction atomicity is out of the paper's
 * scope; persist *ordering* is what BBB provides.
 */

#ifndef BBB_WORKLOADS_RTREE_HH
#define BBB_WORKLOADS_RTREE_HH

#include <optional>

#include "workloads/workload.hh"

namespace bbb
{

/** Per-thread persistent R-tree insertion workload. */
class RtreeWorkload : public Workload
{
  public:
    static constexpr unsigned kFanout = 8;
    static constexpr std::uint64_t kNodeBytes = 8 + 40ull * kFanout;

    explicit RtreeWorkload(const WorkloadParams &p) : Workload(p) {}

    const char *name() const override { return "rtree-spatial"; }
    void prepare(System &sys) override;
    void runThread(ThreadContext &tc, unsigned tid) override;
    void walk(ImageWalk &w, const PmemImage &img) const override;

    /** Axis-aligned bounding rectangle (signed coordinates). */
    struct Rect
    {
        std::int64_t x1, y1, x2, y2;

        bool
        contains(std::int64_t x, std::int64_t y) const
        {
            return x >= x1 && x <= x2 && y >= y1 && y <= y2;
        }

        /** Area increase needed to cover (x, y). */
        std::uint64_t
        enlargement(std::int64_t x, std::int64_t y) const
        {
            std::int64_t nx1 = std::min(x1, x), ny1 = std::min(y1, y);
            std::int64_t nx2 = std::max(x2, x), ny2 = std::max(y2, y);
            auto area = [](std::int64_t a, std::int64_t b) {
                return static_cast<std::uint64_t>(a) *
                       static_cast<std::uint64_t>(b);
            };
            return area(nx2 - nx1, ny2 - ny1) - area(x2 - x1, y2 - y1);
        }
    };

    /** One insert through an arbitrary accessor. */
    static void insert(MemAccessor &m, PersistentHeap &heap, unsigned arena,
                       Addr root_slot, std::int64_t x, std::int64_t y);

  private:
    /**
     * Walk the subtree at @p node, keeping its sound part. Returns the
     * damage that makes @p node itself unusable, having reported nothing
     * below it; the caller then cuts its own link to the node.
     */
    std::optional<ImageWalk::Damage>
    walkNode(ImageWalk &w, const PmemImage &img, Addr node,
             unsigned depth) const;
};

} // namespace bbb

#endif // BBB_WORKLOADS_RTREE_HH
