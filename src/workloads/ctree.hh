/**
 * @file
 * Table IV `ctree`: random-key insertion into a persistent binary search
 * tree (after pmembench's ctree), one tree per thread.
 *
 * Node layout (32 B, one cache block):
 *   +0  key
 *   +8  checksum(key)
 *   +16 left
 *   +24 right
 *
 * Insertion persists the new leaf before linking it into its parent, so
 * a crash can never expose a dangling child pointer under any strict
 * persistency implementation.
 */

#ifndef BBB_WORKLOADS_CTREE_HH
#define BBB_WORKLOADS_CTREE_HH

#include "workloads/workload.hh"

namespace bbb
{

/** Per-thread persistent binary-search-tree insertion workload. */
class CtreeWorkload : public Workload
{
  public:
    explicit CtreeWorkload(const WorkloadParams &p) : Workload(p) {}

    const char *name() const override { return "ctree"; }
    void prepare(System &sys) override;
    void runThread(ThreadContext &tc, unsigned tid) override;
    void walk(ImageWalk &w, const PmemImage &img) const override;
    bool keyed() const override { return true; }

    /** One insert through an arbitrary accessor. */
    static void insert(MemAccessor &m, PersistentHeap &heap, unsigned arena,
                       Addr root, std::uint64_t key);

  private:
    void walkSubtree(ImageWalk &w, const PmemImage &img, unsigned tid,
                     Addr link, unsigned depth) const;
};

} // namespace bbb

#endif // BBB_WORKLOADS_CTREE_HH
