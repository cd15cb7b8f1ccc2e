#include "workloads/linkedlist.hh"

#include "recover/recovery_manager.hh"

namespace bbb
{

namespace
{
constexpr std::uint64_t kNodeBytes = 24;
}

void
LinkedListWorkload::appendNode(MemAccessor &m, PersistentHeap &heap,
                               unsigned arena, Addr root, std::uint64_t key)
{
    Addr node = heap.alloc(arena, kNodeBytes);

    // Initialise the node, then persist it before publication (Fig. 3
    // lines 7-8; the writeBack/persistBarrier pair is a no-op under BBB
    // and eADR, where commit order *is* persist order).
    m.st(node + 0, key);
    m.st(node + 8, nodeChecksum(key));
    m.st(node + 16, m.ld(root));
    m.persistObject(node, kNodeBytes);

    // Publish: update the head pointer, then persist it (lines 10-13).
    m.st(root, node);
    m.wb(root);
    m.barrier();
}

void
LinkedListWorkload::prepare(System &sys)
{
    ImageAccessor img(sys.image());
    Rng rng(_p.seed ^ 0x11511);
    for (unsigned t = _first; t < _end; ++t) {
        Addr root = sys.heap().rootAddr(t);
        img.st(root, 0); // empty list
        for (std::uint64_t i = 0; i < _p.initial_elements; ++i)
            appendNode(img, sys.heap(), t, root, rng.next());
    }
}

void
LinkedListWorkload::runThread(ThreadContext &tc, unsigned tid)
{
    TcAccessor m(tc);
    Addr root = _sys->heap().rootAddr(tid);
    for (std::uint64_t i = 0; i < _p.ops_per_thread; ++i) {
        std::uint64_t key = tc.rng().next();
        logOp(tid, key);
        appendNode(m, _sys->heap(), tid, root, key);
    }
}

RecoveryResult
LinkedListWorkload::checkRecovery(const PmemImage &img) const
{
    RecoveryResult res;
    for (unsigned t = _first; t < _end; ++t) {
        Addr node = img.read64(imageRootAddr(img.addrMap(), t));
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
                // The head reached an unpersisted node: the exact failure
                // Figure 2's unguarded code risks.
                ++res.torn;
                break;
            }
            node = img.read64(node + 16);
            if (++guard > _p.initial_elements + lifeOps() + 8) {
                ++res.dangling; // cycle: structural corruption
                break;
            }
        }
    }
    return res;
}

void
LinkedListWorkload::recover(RecoveryCtx &ctx)
{
    PmemImage img = ctx.image();
    for (unsigned t = _first; t < _end; ++t) {
        // `link` is the pointer slot that leads to `node`; truncating at
        // damage means nulling that slot, which keeps the intact prefix.
        Addr link = ctx.rootAddr(t);
        Addr node = img.read64(link);
        std::uint64_t guard = 0;
        while (node != 0) {
            bool sound = img.validPersistent(node) &&
                         img.read64(node + 8) ==
                             nodeChecksum(img.read64(node + 0)) &&
                         ++guard <= _p.initial_elements + lifeOps() + 8;
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

bool
LinkedListWorkload::collectKeys(const PmemImage &img, unsigned tid,
                                std::vector<std::uint64_t> &out) const
{
    Addr node = img.read64(imageRootAddr(img.addrMap(), tid));
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
    return true;
}

} // namespace bbb
