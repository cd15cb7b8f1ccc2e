/**
 * @file
 * Extension workload `skiplist`: random-key insertion into a persistent
 * skip list, one list per thread (completing the pmembench structure
 * family alongside ctree/rbtree/btree/hashmap).
 *
 * Node layout (variable height, max 12 levels):
 *   +0            key
 *   +8            checksum(key)
 *   +16           height
 *   +24 + 8*lvl   next pointer at level lvl
 *
 * Insertion persists the fully-built node, then links it bottom-up: the
 * level-0 link is the membership commit; higher-level links are search
 * accelerators whose loss after a crash degrades lookup speed but never
 * correctness. The recovery walk keeps the head only if its checksum
 * and height hold, keeps the sorted sound prefix of level 0, and cuts
 * every higher-level pointer that does not land on a kept member taller
 * than the level and ahead in key order.
 */

#ifndef BBB_WORKLOADS_SKIPLIST_HH
#define BBB_WORKLOADS_SKIPLIST_HH

#include "workloads/workload.hh"

namespace bbb
{

/** Per-thread persistent skip-list insertion workload. */
class SkiplistWorkload : public Workload
{
  public:
    static constexpr unsigned kMaxHeight = 12;
    static constexpr std::uint64_t kOffKey = 0;
    static constexpr std::uint64_t kOffSum = 8;
    static constexpr std::uint64_t kOffHeight = 16;
    static constexpr std::uint64_t kOffNext = 24;

    explicit SkiplistWorkload(const WorkloadParams &p) : Workload(p) {}

    void prepare(System &sys) override;
    void runThread(ThreadContext &tc, unsigned tid) override;
    void walk(ImageWalk &w, const PmemImage &img) const override;
    bool keyed() const override { return true; }

    /**
     * One insert through an arbitrary accessor. The head node lives at
     * the root slot's target; @p rng drives the geometric height draw.
     */
    static void insert(MemAccessor &m, PersistentHeap &heap, unsigned arena,
                       Addr head, std::uint64_t key, Rng &rng);

    /** Create the (all-levels, key-less) head node. */
    static Addr makeHead(MemAccessor &m, PersistentHeap &heap,
                         unsigned arena);

  protected:
    Addr rebuildRoot(RecoveryCtx &ctx, unsigned tid) const override;
};

} // namespace bbb

#endif // BBB_WORKLOADS_SKIPLIST_HH
