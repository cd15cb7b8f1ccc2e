#include "workloads/ctree.hh"

#include "recover/recovery_manager.hh"

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
    ImageAccessor img(sys.image());
    Rng rng(_p.seed ^ 0xc43ee);
    for (unsigned t = _first; t < _end; ++t) {
        Addr root = sys.heap().rootAddr(t);
        img.st(root, 0);
        for (std::uint64_t i = 0; i < _p.initial_elements; ++i)
            insert(img, sys.heap(), t, root, rng.next());
    }
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
CtreeWorkload::checkSubtree(const PmemImage &img, Addr node, unsigned depth,
                            RecoveryResult &res) const
{
    if (node == 0)
        return;
    if (!img.validPersistent(node) || depth > kMaxDepth) {
        ++res.dangling;
        return;
    }
    ++res.checked;
    std::uint64_t key = img.read64(node + 0);
    std::uint64_t sum = img.read64(node + 8);
    if (sum != nodeChecksum(key)) {
        ++res.torn;
        return; // children of a torn node are garbage
    }
    ++res.intact;
    checkSubtree(img, img.read64(node + 16), depth + 1, res);
    checkSubtree(img, img.read64(node + 24), depth + 1, res);
}

RecoveryResult
CtreeWorkload::checkRecovery(const PmemImage &img) const
{
    RecoveryResult res;
    for (unsigned t = _first; t < _end; ++t)
        checkSubtree(img, img.read64(imageRootAddr(img.addrMap(), t)), 0,
                     res);
    return res;
}

void
CtreeWorkload::recoverSubtree(RecoveryCtx &ctx, const PmemImage &img,
                              Addr link, unsigned depth) const
{
    Addr node = img.read64(link);
    if (node == 0)
        return;
    bool sound = img.validPersistent(node) && depth <= kMaxDepth &&
                 img.read64(node + 8) ==
                     nodeChecksum(img.read64(node + 0));
    if (!sound) {
        // Dropping the whole subtree keeps the walk linear and the tree
        // a valid BST; the lost descendants were torn or unreachable
        // through a damaged interior node anyway.
        ctx.repair64(link, 0);
        ctx.noteDropped();
        return;
    }
    ctx.noteObject(node, kNodeBytes);
    recoverSubtree(ctx, img, node + 16, depth + 1);
    recoverSubtree(ctx, img, node + 24, depth + 1);
}

void
CtreeWorkload::recover(RecoveryCtx &ctx)
{
    PmemImage img = ctx.image();
    for (unsigned t = _first; t < _end; ++t)
        recoverSubtree(ctx, img, ctx.rootAddr(t), 0);
}

void
CtreeWorkload::collectSubtree(const PmemImage &img, Addr node,
                              unsigned depth,
                              std::vector<std::uint64_t> &out) const
{
    if (node == 0 || !img.validPersistent(node) || depth > kMaxDepth)
        return;
    std::uint64_t key = img.read64(node + 0);
    if (img.read64(node + 8) != nodeChecksum(key))
        return;
    out.push_back(key);
    collectSubtree(img, img.read64(node + 16), depth + 1, out);
    collectSubtree(img, img.read64(node + 24), depth + 1, out);
}

bool
CtreeWorkload::collectKeys(const PmemImage &img, unsigned tid,
                           std::vector<std::uint64_t> &out) const
{
    collectSubtree(img, img.read64(imageRootAddr(img.addrMap(), tid)), 0,
                   out);
    return true;
}

} // namespace bbb
