#include "workloads/rtree.hh"

#include <array>

namespace bbb
{

namespace
{

using Rect = RtreeWorkload::Rect;

constexpr unsigned kFanout = RtreeWorkload::kFanout;
constexpr std::uint64_t kNodeBytes = RtreeWorkload::kNodeBytes;
constexpr unsigned kMaxDepth = 48;

Addr
entryAddr(Addr node, unsigned i)
{
    return node + 8 + 40ull * i;
}

std::uint64_t
metaWord(bool is_leaf, unsigned count)
{
    return (static_cast<std::uint64_t>(is_leaf) << 32) | count;
}

bool
metaIsLeaf(std::uint64_t meta)
{
    return (meta >> 32) & 1;
}

unsigned
metaCount(std::uint64_t meta)
{
    return static_cast<unsigned>(meta & 0xffffffffu);
}

Rect
loadRect(MemAccessor &m, Addr entry)
{
    Rect r;
    r.x1 = static_cast<std::int64_t>(m.ld(entry + 0));
    r.y1 = static_cast<std::int64_t>(m.ld(entry + 8));
    r.x2 = static_cast<std::int64_t>(m.ld(entry + 16));
    r.y2 = static_cast<std::int64_t>(m.ld(entry + 24));
    return r;
}

void
storeEntry(MemAccessor &m, Addr entry, const Rect &r, std::uint64_t tag)
{
    m.st(entry + 0, static_cast<std::uint64_t>(r.x1));
    m.st(entry + 8, static_cast<std::uint64_t>(r.y1));
    m.st(entry + 16, static_cast<std::uint64_t>(r.x2));
    m.st(entry + 24, static_cast<std::uint64_t>(r.y2));
    m.st(entry + 32, tag);
}

std::uint64_t
rectChecksum(const Rect &r)
{
    return nodeChecksum(static_cast<std::uint64_t>(r.x1) ^
                            static_cast<std::uint64_t>(r.y2),
                        static_cast<std::uint64_t>(r.x2),
                        static_cast<std::uint64_t>(r.y1));
}

/** Bounding rectangle of a node's live entries. */
Rect
nodeMbr(MemAccessor &m, Addr node)
{
    unsigned count = metaCount(m.ld(node));
    BBB_ASSERT(count > 0, "MBR of empty rtree node");
    Rect mbr = loadRect(m, entryAddr(node, 0));
    for (unsigned i = 1; i < count; ++i) {
        Rect r = loadRect(m, entryAddr(node, i));
        mbr.x1 = std::min(mbr.x1, r.x1);
        mbr.y1 = std::min(mbr.y1, r.y1);
        mbr.x2 = std::max(mbr.x2, r.x2);
        mbr.y2 = std::max(mbr.y2, r.y2);
    }
    return mbr;
}

/** Create a fresh node, persist entries then the meta word. */
Addr
makeNode(MemAccessor &m, PersistentHeap &heap, unsigned arena, bool is_leaf,
         const Rect *rects, const std::uint64_t *tags, unsigned count)
{
    Addr node = heap.alloc(arena, kNodeBytes, 64);
    for (unsigned i = 0; i < count; ++i)
        storeEntry(m, entryAddr(node, i), rects[i], tags[i]);
    m.persistObject(node + 8, 40ull * count);
    m.st(node, metaWord(is_leaf, count));
    m.wb(node);
    m.barrier();
    return node;
}

/** Append an entry to a non-full node: persist entry, then the count. */
void
appendEntry(MemAccessor &m, Addr node, const Rect &r, std::uint64_t tag)
{
    std::uint64_t meta = m.ld(node);
    unsigned count = metaCount(meta);
    BBB_ASSERT(count < kFanout, "append to full rtree node");
    Addr e = entryAddr(node, count);
    storeEntry(m, e, r, tag);
    m.persistObject(e, 40);
    m.st(node, metaWord(metaIsLeaf(meta), count + 1));
    m.wb(node);
    m.barrier();
}

/**
 * Split a full node: the upper half of its entries move to a new node.
 * The new node is fully persistent before the shrink of the old count is
 * published, so a crash in between duplicates nothing and tears nothing.
 * @return the new sibling.
 */
Addr
splitNode(MemAccessor &m, PersistentHeap &heap, unsigned arena, Addr node)
{
    std::uint64_t meta = m.ld(node);
    unsigned count = metaCount(meta);
    BBB_ASSERT(count == kFanout, "splitting non-full node");
    constexpr unsigned kKeep = kFanout / 2;

    Rect rects[kFanout];
    std::uint64_t tags[kFanout];
    for (unsigned i = kKeep; i < count; ++i) {
        Addr e = entryAddr(node, i);
        rects[i - kKeep] = loadRect(m, e);
        tags[i - kKeep] = m.ld(e + 32);
    }
    Addr sibling = makeNode(m, heap, arena, metaIsLeaf(meta), rects, tags,
                            count - kKeep);

    m.st(node, metaWord(metaIsLeaf(meta), kKeep));
    m.wb(node);
    m.barrier();
    return sibling;
}

/** Index of the child entry needing least enlargement for (x, y). */
unsigned
chooseSubtree(MemAccessor &m, Addr node, std::int64_t x, std::int64_t y)
{
    unsigned count = metaCount(m.ld(node));
    BBB_ASSERT(count > 0, "choose in empty node");
    unsigned best = 0;
    std::uint64_t best_enl = ~0ull;
    for (unsigned i = 0; i < count; ++i) {
        Rect r = loadRect(m, entryAddr(node, i));
        std::uint64_t enl = r.enlargement(x, y);
        if (enl < best_enl) {
            best_enl = enl;
            best = i;
        }
    }
    return best;
}

/**
 * Guttman AdjustTree step: write entry @p idx of @p node as the union of
 * its rectangle and (x, y). As in the classic algorithm the rectangle is
 * (re)written on every insert along the path, which also concentrates the
 * persist traffic on path blocks.
 */
void
enlargeEntry(MemAccessor &m, Addr node, unsigned idx, std::int64_t x,
             std::int64_t y)
{
    Addr e = entryAddr(node, idx);
    Rect r = loadRect(m, e);
    m.st(e + 0, static_cast<std::uint64_t>(std::min(r.x1, x)));
    m.st(e + 8, static_cast<std::uint64_t>(std::min(r.y1, y)));
    m.st(e + 16, static_cast<std::uint64_t>(std::max(r.x2, x)));
    m.st(e + 24, static_cast<std::uint64_t>(std::max(r.y2, y)));
    m.persistObject(e, 32);
}

/** Refresh entry @p idx of @p node to exactly its child's MBR. */
void
refreshEntry(MemAccessor &m, Addr node, unsigned idx, Addr child)
{
    Rect mbr = nodeMbr(m, child);
    Addr e = entryAddr(node, idx);
    m.st(e + 0, static_cast<std::uint64_t>(mbr.x1));
    m.st(e + 8, static_cast<std::uint64_t>(mbr.y1));
    m.st(e + 16, static_cast<std::uint64_t>(mbr.x2));
    m.st(e + 24, static_cast<std::uint64_t>(mbr.y2));
    m.persistObject(e, 32);
}

} // namespace

void
RtreeWorkload::insert(MemAccessor &m, PersistentHeap &heap, unsigned arena,
                      Addr root_slot, std::int64_t x, std::int64_t y)
{
    Rect point{x, y, x, y};
    std::uint64_t point_tag = rectChecksum(point);

    Addr root = m.ld(root_slot);
    if (root == 0) {
        Addr leaf = makeNode(m, heap, arena, true, &point, &point_tag, 1);
        m.st(root_slot, leaf);
        m.wb(root_slot);
        m.barrier();
        return;
    }

    // Descend, recording the path of (node, entry index).
    std::array<Addr, kMaxDepth> path_node;
    std::array<unsigned, kMaxDepth> path_idx;
    unsigned depth = 0;
    Addr node = root;
    while (!metaIsLeaf(m.ld(node))) {
        BBB_ASSERT(depth < kMaxDepth, "rtree too deep");
        unsigned idx = chooseSubtree(m, node, x, y);
        path_node[depth] = node;
        path_idx[depth] = idx;
        ++depth;
        node = m.ld(entryAddr(node, idx) + 32);
    }

    // Place the point, splitting the leaf if needed.
    if (metaCount(m.ld(node)) < kFanout) {
        appendEntry(m, node, point, point_tag);
        // Grow ancestor rectangles to cover the new point.
        for (unsigned d = depth; d-- > 0;)
            enlargeEntry(m, path_node[d], path_idx[d], x, y);
        return;
    }

    Addr sibling = splitNode(m, heap, arena, node);
    // Add the point to whichever half wants it more.
    Addr target = nodeMbr(m, sibling).enlargement(x, y) <
                          nodeMbr(m, node).enlargement(x, y)
                      ? sibling
                      : node;
    appendEntry(m, target, point, point_tag);

    // Publish the sibling upward, splitting ancestors as required.
    Addr new_child = sibling;
    while (depth > 0) {
        --depth;
        Addr parent = path_node[depth];
        unsigned idx = path_idx[depth];

        // The split halved the old child: refresh its rectangle.
        refreshEntry(m, parent, idx, m.ld(entryAddr(parent, idx) + 32));

        Rect child_mbr = nodeMbr(m, new_child);
        if (metaCount(m.ld(parent)) < kFanout) {
            appendEntry(m, parent, child_mbr,
                        static_cast<std::uint64_t>(new_child));
            for (unsigned d = depth; d-- > 0;)
                enlargeEntry(m, path_node[d], path_idx[d], x, y);
            return;
        }
        Addr parent_sibling = splitNode(m, heap, arena, parent);
        Addr host = nodeMbr(m, parent_sibling).enlargement(x, y) <
                            nodeMbr(m, parent).enlargement(x, y)
                        ? parent_sibling
                        : parent;
        // Note: appending to either half is structurally safe; rectangles
        // above will be refreshed as the split continues upward.
        appendEntry(m, host, child_mbr,
                    static_cast<std::uint64_t>(new_child));
        new_child = parent_sibling;
    }

    // The root itself split: build a taller tree.
    Rect rects[2] = {nodeMbr(m, root), nodeMbr(m, new_child)};
    std::uint64_t tags[2] = {root, new_child};
    Addr new_root = makeNode(m, heap, arena, false, rects, tags, 2);
    m.st(root_slot, new_root);
    m.wb(root_slot);
    m.barrier();
}

namespace
{

/**
 * Point source: a bounded random walk over the coordinate space. Spatial
 * indexes are overwhelmingly fed spatially correlated data (trajectories,
 * scan orders); the walk makes consecutive inserts land in nearby leaves,
 * which is also what gives persist buffers their coalescing window.
 */
struct PointWalk
{
    explicit PointWalk(Rng &r)
        : rng(r), x(static_cast<std::int64_t>(r.below(kSpan))),
          y(static_cast<std::int64_t>(r.below(kSpan)))
    {
    }

    static constexpr std::int64_t kSpan = 1 << 20;
    static constexpr std::int64_t kStep = 64;

    void
    advance()
    {
        x += static_cast<std::int64_t>(rng.below(2 * kStep + 1)) - kStep;
        y += static_cast<std::int64_t>(rng.below(2 * kStep + 1)) - kStep;
        x = std::clamp<std::int64_t>(x, 0, kSpan - 1);
        y = std::clamp<std::int64_t>(y, 0, kSpan - 1);
    }

    Rng &rng;
    std::int64_t x;
    std::int64_t y;
};

} // namespace

void
RtreeWorkload::prepare(System &sys)
{
    Rng rng(_p.seed ^ 0x57ee);
    forEachArena(sys, [&](MemAccessor &m, unsigned t) {
        Addr root_slot = sys.heap().rootAddr(t);
        m.st(root_slot, 0);
        PointWalk walk(rng);
        for (std::uint64_t i = 0; i < _p.initial_elements; ++i) {
            walk.advance();
            insert(m, sys.heap(), t, root_slot, walk.x, walk.y);
        }
    });
}

void
RtreeWorkload::runThread(ThreadContext &tc, unsigned tid)
{
    TcAccessor m(tc);
    Addr root_slot = _sys->heap().rootAddr(tid);
    PointWalk walk(tc.rng());
    for (std::uint64_t i = 0; i < _p.ops_per_thread; ++i) {
        walk.advance();
        insert(m, _sys->heap(), tid, root_slot, walk.x, walk.y);
    }
}

void
RtreeWorkload::walk(ImageWalk &w, const PmemImage &img) const
{
    for (unsigned t = _first; t < _end; ++t) {
        Addr root_slot = imageRootAddr(img.addrMap(), t);
        Addr root = img.read64(root_slot);
        if (root == 0)
            continue;
        if (auto why = walkNode(w, img, root, 0))
            w.cut(root_slot, 0, 1, *why);
    }
}

std::optional<ImageWalk::Damage>
RtreeWorkload::walkNode(ImageWalk &w, const PmemImage &img, Addr node,
                        unsigned depth) const
{
    using Damage = ImageWalk::Damage;
    if (node == 0 || !img.validPersistent(node) || depth > kMaxDepth)
        return Damage::Dangling;
    std::uint64_t meta = img.read64(node);
    bool is_leaf = metaIsLeaf(meta);
    unsigned count = metaCount(meta);
    if (count > kFanout)
        return Damage::Torn; // corrupt meta word

    // Keep the longest prefix of checksum-valid leaf entries or usable
    // child subtrees.
    unsigned keep = count;
    std::optional<Damage> why;
    for (unsigned i = 0; i < count && !why; ++i) {
        Addr e = entryAddr(node, i);
        std::uint64_t tag = img.read64(e + 32);
        if (is_leaf) {
            Rect r;
            r.x1 = static_cast<std::int64_t>(img.read64(e + 0));
            r.y1 = static_cast<std::int64_t>(img.read64(e + 8));
            r.x2 = static_cast<std::int64_t>(img.read64(e + 16));
            r.y2 = static_cast<std::int64_t>(img.read64(e + 24));
            if (tag != rectChecksum(r))
                why = Damage::Torn;
        } else {
            why = walkNode(w, img, tag, depth + 1);
        }
        if (why)
            keep = i;
    }
    // An interior node with no usable children would break the resumed
    // chooseSubtree (which requires a live entry): unusable upward.
    if (!is_leaf && keep == 0)
        return why.value_or(Damage::Torn);
    w.keep(node, kNodeBytes, keep);
    if (keep != count)
        w.cut(node, metaWord(is_leaf, keep), count - keep, *why);
    return std::nullopt;
}

} // namespace bbb
