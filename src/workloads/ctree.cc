#include "workloads/ctree.hh"

#include "workloads/rank_index.hh"

namespace bbb
{

namespace
{

constexpr unsigned kMaxDepth = 128;
constexpr std::uint64_t kNodeBytes = 32;

constexpr Addr kOffLeft = 16;
constexpr Addr kOffRight = 24;

/** Build and persist a new leaf for @p key, not yet linked. */
Addr
newLeaf(MemAccessor &m, PersistentHeap &heap, unsigned arena,
        std::uint64_t key)
{
    Addr node = heap.alloc(arena, kNodeBytes, kNodeBytes);
    m.st(node + 0, key);
    m.st(node + 8, nodeChecksum(key));
    m.st(node + kOffLeft, 0);
    m.st(node + kOffRight, 0);
    m.persistObject(node, kNodeBytes);
    return node;
}

/** Point @p link at @p node: the insert's single publishing store. */
void
publish(MemAccessor &m, Addr link, Addr node)
{
    m.st(link, node);
    m.wb(link);
    m.barrier();
}

} // namespace

void
CtreeWorkload::insert(MemAccessor &m, PersistentHeap &heap, unsigned arena,
                      Addr root, std::uint64_t key)
{
    Addr node = newLeaf(m, heap, arena, key);

    // Find the link to update.
    Addr link = root;
    Addr cur = m.ld(link);
    unsigned depth = 0;
    while (cur != 0) {
        std::uint64_t cur_key = m.ld(cur + 0);
        link = (key < cur_key) ? cur + kOffLeft : cur + kOffRight;
        cur = m.ld(link);
        BBB_ASSERT(++depth < 4096, "ctree descend runaway");
    }
    publish(m, link, node);
}

void
CtreeWorkload::prebuild(MemAccessor &m, PersistentHeap &heap, unsigned arena,
                        Addr root, const std::vector<std::uint64_t> &keys)
{
    RankIndex index(keys);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        Addr node = newLeaf(m, heap, arena, keys[i]);
        RankIndex::Slot at = index.place(m, i, kOffRight);
        publish(m,
                at.parent == 0 ? root
                               : at.parent + (at.right ? kOffRight : kOffLeft),
                node);
        index.placed(i, node);
    }
}

void
CtreeWorkload::prepare(System &sys)
{
    Rng rng(_p.seed ^ 0xc43ee);
    forEachArena(sys, [&](MemAccessor &m, unsigned t) {
        Addr root = sys.heap().rootAddr(t);
        m.st(root, 0);
        std::vector<std::uint64_t> keys = drawKeys(rng, _p.initial_elements);
        if (!wordByWord())
            return prebuild(m, sys.heap(), t, root, keys);
        for (std::uint64_t key : keys)
            insert(m, sys.heap(), t, root, key);
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
    walkSubtree(w, img, tid, node + kOffLeft, depth + 1);
    walkSubtree(w, img, tid, node + kOffRight, depth + 1);
}

} // namespace bbb
