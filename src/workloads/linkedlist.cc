#include "workloads/linkedlist.hh"

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

void
LinkedListWorkload::walkList(ImageWalk &w, const PmemImage &img,
                             unsigned tid, Addr link, std::uint64_t limit)
{
    // `link` is the pointer slot that leads to `node`; cutting at damage
    // nulls that slot, which keeps the intact prefix.
    Addr node = img.read64(link);
    std::uint64_t guard = 0;
    while (node != 0) {
        if (!img.validPersistent(node) || ++guard > limit) {
            // Wild pointer or a cycle: structural corruption.
            w.cut(link, 0, 1, ImageWalk::Damage::Dangling);
            return;
        }
        std::uint64_t key = img.read64(node + 0);
        if (img.read64(node + 8) != nodeChecksum(key)) {
            // The link reached an unpersisted node: the exact failure
            // Figure 2's unguarded code risks.
            w.cut(link, 0, 1, ImageWalk::Damage::Torn);
            return;
        }
        w.keep(node, kNodeBytes, 0);
        w.key(tid, key);
        link = node + 16;
        node = img.read64(link);
    }
}

void
LinkedListWorkload::walk(ImageWalk &w, const PmemImage &img) const
{
    for (unsigned t = _first; t < _end; ++t)
        walkList(w, img, t, imageRootAddr(img.addrMap(), t),
                 _p.initial_elements + lifeOps() + 8);
}

} // namespace bbb
