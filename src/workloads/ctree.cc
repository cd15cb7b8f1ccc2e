#include "workloads/ctree.hh"

namespace bbb
{

namespace
{
constexpr unsigned kMaxDepth = 128;
constexpr std::uint64_t kNodeBytes = 32;
} // namespace

void
CtreeWorkload::insert(MemAccessor &m, PersistentHeap &heap, unsigned arena,
                      Addr root, std::uint64_t key)
{
    // Build and persist the new leaf first.
    Addr node = heap.alloc(arena, kNodeBytes, kNodeBytes);
    m.st(node + 0, key);
    m.st(node + 8, nodeChecksum(key));
    m.st(node + 16, 0);
    m.st(node + 24, 0);
    m.persistObject(node, kNodeBytes);

    // Find the link to update.
    Addr link = root;
    Addr cur = m.ld(link);
    unsigned depth = 0;
    while (cur != 0) {
        std::uint64_t cur_key = m.ld(cur + 0);
        link = (key < cur_key) ? cur + 16 : cur + 24;
        cur = m.ld(link);
        BBB_ASSERT(++depth < 4096, "ctree descend runaway");
    }

    // Publish.
    m.st(link, node);
    m.wb(link);
    m.barrier();
}

void
CtreeWorkload::prepare(System &sys)
{
    Rng rng(_p.seed ^ 0xc43ee);
    forEachArena(sys, [&](MemAccessor &m, unsigned t) {
        Addr root = sys.heap().rootAddr(t);
        m.st(root, 0);
        for (std::uint64_t i = 0; i < _p.initial_elements; ++i)
            insert(m, sys.heap(), t, root, rng.next());
    });
}

void
CtreeWorkload::runThread(ThreadContext &tc, unsigned tid)
{
    TcAccessor m(tc);
    Addr root = _sys->heap().rootAddr(tid);
    for (std::uint64_t i = 0; i < _p.ops_per_thread; ++i) {
        std::uint64_t key = tc.rng().next();
        logOp(tid, key);
        insert(m, _sys->heap(), tid, root, key);
    }
}

void
CtreeWorkload::walk(ImageWalk &w, const PmemImage &img) const
{
    for (unsigned t = _first; t < _end; ++t)
        walkSubtree(w, img, t, imageRootAddr(img.addrMap(), t), 0);
}

void
CtreeWorkload::walkSubtree(ImageWalk &w, const PmemImage &img, unsigned tid,
                           Addr link, unsigned depth) const
{
    // A damaged node costs its whole subtree: cutting the link keeps the
    // walk linear and the tree a valid BST, and the lost descendants
    // were torn or unreachable through a damaged interior node anyway.
    Addr node = img.read64(link);
    if (node == 0)
        return;
    if (!img.validPersistent(node) || depth > kMaxDepth) {
        w.cut(link, 0, 1, ImageWalk::Damage::Dangling);
        return;
    }
    std::uint64_t key = img.read64(node + 0);
    if (img.read64(node + 8) != nodeChecksum(key)) {
        w.cut(link, 0, 1, ImageWalk::Damage::Torn);
        return;
    }
    w.keep(node, kNodeBytes, 0);
    w.key(tid, key);
    walkSubtree(w, img, tid, node + 16, depth + 1);
    walkSubtree(w, img, tid, node + 24, depth + 1);
}

} // namespace bbb
