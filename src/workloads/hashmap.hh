/**
 * @file
 * Table IV `hashmap`: random insertions into a persistent chained hash
 * map, one map per thread.
 *
 * Layout: the root slot points at a power-of-two bucket array of 8-byte
 * head pointers; nodes are 24 B {key, checksum(key), next}. Insertion
 * prepends to the bucket chain with the same persist-then-publish
 * discipline as the linked list, and recovery walks each chain as one.
 */

#ifndef BBB_WORKLOADS_HASHMAP_HH
#define BBB_WORKLOADS_HASHMAP_HH

#include "workloads/workload.hh"

namespace bbb
{

/** Per-thread persistent hash-map insertion workload. */
class HashmapWorkload : public Workload
{
  public:
    explicit HashmapWorkload(const WorkloadParams &p) : Workload(p) {}

    void prepare(System &sys) override;
    void runThread(ThreadContext &tc, unsigned tid) override;
    void walk(ImageWalk &w, const PmemImage &img) const override;
    bool keyed() const override { return true; }

    /** One insert through an arbitrary accessor. */
    static void insert(MemAccessor &m, PersistentHeap &heap, unsigned arena,
                       Addr buckets, std::uint64_t nbuckets,
                       std::uint64_t key);

  protected:
    Addr rebuildRoot(RecoveryCtx &ctx, unsigned tid) const override;

  private:
    std::uint64_t _nbuckets = 0;
};

} // namespace bbb

#endif // BBB_WORKLOADS_HASHMAP_HH
