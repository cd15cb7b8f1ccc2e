#include "workloads/rbtree.hh"

namespace bbb
{

namespace
{

constexpr unsigned kMaxDepth = 96;

constexpr Addr kOffKey = 0;
constexpr Addr kOffSum = 8;
constexpr Addr kOffLeft = 16;
constexpr Addr kOffRight = 24;
constexpr Addr kOffParent = 32;
constexpr std::uint64_t kNodeBytes = 40;

constexpr std::uint64_t kRed = 1;

Addr
parentOf(std::uint64_t pc)
{
    return pc & ~1ull;
}

bool
isRed(MemAccessor &m, Addr n)
{
    return n != 0 && (m.ld(n + kOffParent) & kRed);
}

void
setParentColor(MemAccessor &m, Addr n, Addr parent, bool red)
{
    m.st(n + kOffParent, parent | (red ? kRed : 0));
    m.wb(n + kOffParent);
    m.barrier();
}

void
setColor(MemAccessor &m, Addr n, bool red)
{
    std::uint64_t pc = m.ld(n + kOffParent);
    setParentColor(m, n, parentOf(pc), red);
}

Addr
childOf(MemAccessor &m, Addr n, bool right)
{
    return m.ld(n + (right ? kOffRight : kOffLeft));
}

/** Store child pointer and persist it (the structural commit point). */
void
setChild(MemAccessor &m, Addr n, bool right, Addr child)
{
    Addr field = n + (right ? kOffRight : kOffLeft);
    m.st(field, child);
    m.wb(field);
    m.barrier();
}

/** Replace @p old_child of @p parent (or the root slot) with @p now. */
void
replaceChild(MemAccessor &m, Addr root_slot, Addr parent, Addr old_child,
             Addr now)
{
    if (parent == 0) {
        m.st(root_slot, now);
        m.wb(root_slot);
        m.barrier();
        return;
    }
    bool right = childOf(m, parent, true) == old_child;
    setChild(m, parent, right, now);
}

/**
 * Rotate @p x down in direction @p right (true = right rotation). The
 * pointer writes are ordered child-first so every crash point leaves a
 * valid (possibly unbalanced) search tree.
 */
void
rotate(MemAccessor &m, Addr root_slot, Addr x, bool right)
{
    Addr y = childOf(m, x, !right);
    BBB_ASSERT(y != 0, "rotation without pivot");
    Addr x_parent = parentOf(m.ld(x + kOffParent));
    Addr moved = childOf(m, y, right);

    setChild(m, x, !right, moved);
    if (moved)
        setParentColor(m, moved, x, isRed(m, moved));

    setChild(m, y, right, x);
    replaceChild(m, root_slot, x_parent, x, y);

    setParentColor(m, y, x_parent, isRed(m, y));
    setParentColor(m, x, y, isRed(m, x));
}

} // namespace

void
RbtreeWorkload::insert(MemAccessor &m, PersistentHeap &heap, unsigned arena,
                       Addr root_slot, std::uint64_t key)
{
    // Build and persist the new (red) node before linking.
    Addr node = heap.alloc(arena, kNodeBytes, 8);
    m.st(node + kOffKey, key);
    m.st(node + kOffSum, nodeChecksum(key));
    m.st(node + kOffLeft, 0);
    m.st(node + kOffRight, 0);
    m.st(node + kOffParent, kRed); // parent filled below
    m.persistObject(node, kNodeBytes);

    Addr root = m.ld(root_slot);
    if (root == 0) {
        setParentColor(m, node, 0, false); // root is black
        m.st(root_slot, node);
        m.wb(root_slot);
        m.barrier();
        return;
    }

    // Standard BST descent.
    Addr parent = root;
    bool right = false;
    unsigned depth = 0;
    for (;;) {
        std::uint64_t pkey = m.ld(parent + kOffKey);
        right = key >= pkey;
        Addr next = childOf(m, parent, right);
        if (next == 0)
            break;
        parent = next;
        BBB_ASSERT(++depth < 4096, "rbtree descend runaway");
    }
    setParentColor(m, node, parent, true);
    setChild(m, parent, right, node);

    // Red-black fixup (CLRS insert-fixup, iterative).
    Addr z = node;
    unsigned guard = 0;
    while (isRed(m, parentOf(m.ld(z + kOffParent)))) {
        BBB_ASSERT(++guard < 4096, "rbtree fixup runaway");
        Addr p = parentOf(m.ld(z + kOffParent));
        Addr g = parentOf(m.ld(p + kOffParent));
        if (g == 0)
            break;
        bool p_is_left = childOf(m, g, false) == p;
        Addr uncle = childOf(m, g, p_is_left);
        if (isRed(m, uncle)) {
            setColor(m, p, false);
            setColor(m, uncle, false);
            setColor(m, g, true);
            z = g;
            continue;
        }
        if (p_is_left) {
            if (childOf(m, p, true) == z) {
                z = p;
                rotate(m, root_slot, z, false);
                p = parentOf(m.ld(z + kOffParent));
            }
            setColor(m, p, false);
            setColor(m, g, true);
            rotate(m, root_slot, g, true);
        } else {
            if (childOf(m, p, false) == z) {
                z = p;
                rotate(m, root_slot, z, true);
                p = parentOf(m.ld(z + kOffParent));
            }
            setColor(m, p, false);
            setColor(m, g, true);
            rotate(m, root_slot, g, false);
        }
    }
    Addr new_root = m.ld(root_slot);
    if (isRed(m, new_root))
        setColor(m, new_root, false);
}

void
RbtreeWorkload::prepare(System &sys)
{
    ImageAccessor img(sys.image());
    Rng rng(_p.seed ^ 0x8b7ee);
    for (unsigned t = _first; t < _end; ++t) {
        Addr root_slot = sys.heap().rootAddr(t);
        img.st(root_slot, 0);
        for (std::uint64_t i = 0; i < _p.initial_elements; ++i)
            insert(img, sys.heap(), t, root_slot, rng.next());
    }
}

void
RbtreeWorkload::runThread(ThreadContext &tc, unsigned tid)
{
    TcAccessor m(tc);
    Addr root_slot = _sys->heap().rootAddr(tid);
    for (std::uint64_t i = 0; i < _p.ops_per_thread; ++i) {
        std::uint64_t key = tc.rng().next();
        logOp(tid, key);
        insert(m, _sys->heap(), tid, root_slot, key);
    }
}

void
RbtreeWorkload::walk(ImageWalk &w, const PmemImage &img) const
{
    std::set<Addr> visited;
    for (unsigned t = _first; t < _end; ++t)
        walkSubtree(w, img, t, imageRootAddr(img.addrMap(), t), 0, 0,
                    visited);
}

void
RbtreeWorkload::walkSubtree(ImageWalk &w, const PmemImage &img,
                            unsigned tid, Addr link, Addr parent,
                            unsigned depth, std::set<Addr> &visited) const
{
    using Damage = ImageWalk::Damage;
    Addr node = img.read64(link);
    if (node == 0)
        return;
    // A damaged image can alias a node under two parents (torn pointer
    // blocks, interrupted rotations). Keep only the first (pre-order)
    // occurrence: a DAG'd tree would let a resumed rotation close a
    // cycle and hang the descent.
    if (!img.validPersistent(node) || depth > kMaxDepth ||
        !visited.insert(node).second) {
        w.cut(link, 0, 1, Damage::Dangling);
        return;
    }
    std::uint64_t key = img.read64(node + kOffKey);
    if (img.read64(node + kOffSum) != nodeChecksum(key)) {
        w.cut(link, 0, 1, Damage::Torn);
        return;
    }
    w.keep(node, kNodeBytes, 0);
    w.key(tid, key);
    // Reconcile the rebalancing hints: a crash mid-rotation legitimately
    // leaves parent pointers stale (they are written after the structural
    // commits), and stale hints would derail a resumed fixup. Re-derive
    // the parent from the walk and recolor everything black — an
    // all-black tree has no red-red violations, so resumed inserts start
    // from a fixup-quiescent state. This is normalization, not damage.
    std::uint64_t want = parent; // black: color bit clear
    if (img.read64(node + kOffParent) != want)
        w.normalize(node + kOffParent, want);
    walkSubtree(w, img, tid, node + kOffLeft, node, depth + 1, visited);
    walkSubtree(w, img, tid, node + kOffRight, node, depth + 1, visited);
}

} // namespace bbb
