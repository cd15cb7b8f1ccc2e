/**
 * @file
 * The paper's motivating example (Figures 2/3): prepending nodes to a
 * persistent singly-linked list, one list per thread.
 *
 * Node layout (24 B, within one cache block):
 *   +0  key
 *   +8  checksum(key)
 *   +16 next
 *
 * The crash-consistency invariant: the head pointer must never reach a
 * node whose payload has not persisted. Under strict persistency (BBB,
 * eADR, or PMEM with flush+fence) the invariant holds at every crash
 * point; under unsafe ADR it is eventually violated (Section II-A).
 */

#ifndef BBB_WORKLOADS_LINKEDLIST_HH
#define BBB_WORKLOADS_LINKEDLIST_HH

#include "workloads/workload.hh"

namespace bbb
{

/** Per-thread persistent linked-list prepend workload. */
class LinkedListWorkload : public Workload
{
  public:
    explicit LinkedListWorkload(const WorkloadParams &p) : Workload(p) {}

    void prepare(System &sys) override;
    void runThread(ThreadContext &tc, unsigned tid) override;
    void walk(ImageWalk &w, const PmemImage &img) const override;
    bool keyed() const override { return true; }

    /** One prepend through an arbitrary accessor (shared logic). */
    static void appendNode(MemAccessor &m, PersistentHeap &heap,
                           unsigned arena, Addr root, std::uint64_t key);

    /**
     * Walk the list hanging off pointer slot @p link, keeping its sound
     * prefix: at most @p limit nodes, each in the persistent range with
     * a valid checksum. Hashmap bucket chains share this node layout.
     */
    static void walkList(ImageWalk &w, const PmemImage &img, unsigned tid,
                         Addr link, std::uint64_t limit);
};

} // namespace bbb

#endif // BBB_WORKLOADS_LINKEDLIST_HH
