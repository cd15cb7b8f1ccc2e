#include "workloads/hashmap.hh"

#include <bit>

#include "recover/recovery_manager.hh"
#include "workloads/linkedlist.hh"

namespace bbb
{

namespace
{
constexpr std::uint64_t kNodeBytes = 24;
}

void
HashmapWorkload::insert(MemAccessor &m, PersistentHeap &heap,
                        unsigned arena, Addr buckets, std::uint64_t nbuckets,
                        std::uint64_t key)
{
    Addr bucket = buckets + (mix64(key) & (nbuckets - 1)) * 8;

    Addr node = heap.alloc(arena, kNodeBytes);
    m.st(node + 0, key);
    m.st(node + 8, nodeChecksum(key));
    m.st(node + 16, m.ld(bucket));
    m.persistObject(node, kNodeBytes);

    m.st(bucket, node);
    m.wb(bucket);
    m.barrier();
}

void
HashmapWorkload::prepare(System &sys)
{
    _nbuckets = std::bit_ceil(std::max<std::uint64_t>(
        16, _p.initial_elements + _p.ops_per_thread));

    Rng rng(_p.seed ^ 0x4a54);
    forEachArena(sys, [&](MemAccessor &m, unsigned t) {
        // Bucket array: media zero-fill is the empty state.
        Addr buckets = sys.heap().alloc(t, _nbuckets * 8, kBlockSize);
        m.st(sys.heap().rootAddr(t), buckets);
        for (std::uint64_t i = 0; i < _p.initial_elements; ++i)
            insert(m, sys.heap(), t, buckets, _nbuckets, rng.next());
    });
}

void
HashmapWorkload::runThread(ThreadContext &tc, unsigned tid)
{
    TcAccessor m(tc);
    Addr buckets = tc.load64(_sys->heap().rootAddr(tid));
    for (std::uint64_t i = 0; i < _p.ops_per_thread; ++i) {
        std::uint64_t key = tc.rng().next();
        logOp(tid, key);
        insert(m, _sys->heap(), tid, buckets, _nbuckets, key);
    }
}

void
HashmapWorkload::walk(ImageWalk &w, const PmemImage &img) const
{
    std::uint64_t limit = _p.initial_elements + lifeOps() + 8;
    for (unsigned t = _first; t < _end; ++t) {
        Addr root = imageRootAddr(img.addrMap(), t);
        Addr buckets = img.read64(root);
        if (buckets == 0 || !img.validPersistent(buckets) ||
            !img.validPersistent(buckets + _nbuckets * 8 - 1)) {
            w.lost(t, root, 1);
            continue;
        }
        w.keep(buckets, _nbuckets * 8, 0);
        for (std::uint64_t b = 0; b < _nbuckets; ++b)
            LinkedListWorkload::walkList(w, img, t, buckets + b * 8, limit);
    }
}

Addr
HashmapWorkload::rebuildRoot(RecoveryCtx &ctx, unsigned tid) const
{
    // The bucket array itself is gone: rebuild an empty map. Nothing in
    // this arena was kept, so the allocation lands at the arena base —
    // the same spot prepare() used.
    Addr fresh = ctx.alloc(tid, _nbuckets * 8, kBlockSize);
    for (std::uint64_t b = 0; b < _nbuckets; ++b)
        ctx.write64(fresh + b * 8, 0);
    return fresh;
}

} // namespace bbb
