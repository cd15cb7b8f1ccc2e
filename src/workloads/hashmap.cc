#include "workloads/hashmap.hh"

#include <bit>

#include "recover/recovery_manager.hh"

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

    ImageAccessor img(sys.image());
    Rng rng(_p.seed ^ 0x4a54);
    for (unsigned t = _first; t < _end; ++t) {
        // Bucket array: media zero-fill is the empty state.
        Addr buckets = sys.heap().alloc(t, _nbuckets * 8, kBlockSize);
        img.st(sys.heap().rootAddr(t), buckets);
        for (std::uint64_t i = 0; i < _p.initial_elements; ++i)
            insert(img, sys.heap(), t, buckets, _nbuckets, rng.next());
    }
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

bool
HashmapWorkload::bucketsUsable(const PmemImage &img, Addr buckets) const
{
    return buckets != 0 && img.validPersistent(buckets) &&
           img.validPersistent(buckets + _nbuckets * 8 - 1);
}

RecoveryResult
HashmapWorkload::checkRecovery(const PmemImage &img) const
{
    RecoveryResult res;
    for (unsigned t = _first; t < _end; ++t) {
        Addr buckets = img.read64(imageRootAddr(img.addrMap(), t));
        if (!bucketsUsable(img, buckets)) {
            ++res.dangling;
            continue;
        }
        for (std::uint64_t b = 0; b < _nbuckets; ++b) {
            Addr node = img.read64(buckets + b * 8);
            std::uint64_t guard = 0;
            while (node != 0) {
                if (!img.validPersistent(node)) {
                    ++res.dangling;
                    break;
                }
                ++res.checked;
                std::uint64_t key = img.read64(node + 0);
                std::uint64_t sum = img.read64(node + 8);
                if (sum == nodeChecksum(key)) {
                    ++res.intact;
                } else {
                    ++res.torn;
                    break;
                }
                node = img.read64(node + 16);
                if (++guard > _p.initial_elements + lifeOps() + 8) {
                    ++res.dangling;
                    break;
                }
            }
        }
    }
    return res;
}

void
HashmapWorkload::recover(RecoveryCtx &ctx)
{
    PmemImage img = ctx.image();
    for (unsigned t = _first; t < _end; ++t) {
        Addr root = ctx.rootAddr(t);
        Addr buckets = img.read64(root);
        if (!bucketsUsable(img, buckets)) {
            // The bucket array itself is gone: rebuild an empty map.
            // Nothing in this arena was noted yet, so the allocation
            // lands at the arena base — the same spot prepare() used.
            Addr fresh = ctx.alloc(t, _nbuckets * 8, kBlockSize);
            for (std::uint64_t b = 0; b < _nbuckets; ++b)
                ctx.write64(fresh + b * 8, 0);
            ctx.repair64(root, fresh);
            ctx.noteDropped();
            continue;
        }
        ctx.noteObject(buckets, _nbuckets * 8);
        for (std::uint64_t b = 0; b < _nbuckets; ++b) {
            Addr link = buckets + b * 8;
            Addr node = img.read64(link);
            std::uint64_t guard = 0;
            while (node != 0) {
                bool sound = img.validPersistent(node) &&
                             img.read64(node + 8) ==
                                 nodeChecksum(img.read64(node + 0)) &&
                             ++guard <=
                                 _p.initial_elements + lifeOps() + 8;
                if (!sound) {
                    ctx.repair64(link, 0);
                    ctx.noteDropped();
                    break;
                }
                ctx.noteObject(node, kNodeBytes);
                link = node + 16;
                node = img.read64(link);
            }
        }
    }
}

bool
HashmapWorkload::collectKeys(const PmemImage &img, unsigned tid,
                             std::vector<std::uint64_t> &out) const
{
    Addr buckets = img.read64(imageRootAddr(img.addrMap(), tid));
    if (!bucketsUsable(img, buckets))
        return true;
    for (std::uint64_t b = 0; b < _nbuckets; ++b) {
        Addr node = img.read64(buckets + b * 8);
        std::uint64_t guard = 0;
        while (node != 0 && img.validPersistent(node)) {
            std::uint64_t key = img.read64(node + 0);
            if (img.read64(node + 8) != nodeChecksum(key))
                break;
            out.push_back(key);
            node = img.read64(node + 16);
            if (++guard > _p.initial_elements + lifeOps() + 8)
                break;
        }
    }
    return true;
}

} // namespace bbb
