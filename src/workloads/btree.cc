#include "workloads/btree.hh"

namespace bbb
{

namespace
{

constexpr unsigned kFanout = BtreeWorkload::kFanout;
constexpr std::uint64_t kKeysOff = BtreeWorkload::kKeysOff;
constexpr std::uint64_t kChildOff = BtreeWorkload::kChildOff;
constexpr std::uint64_t kNodeBytes = BtreeWorkload::kNodeBytes;
constexpr unsigned kMaxDepth = 48;

Addr
keyAddr(Addr node, unsigned i)
{
    return node + kKeysOff + 16ull * i;
}

Addr
childAddr(Addr node, unsigned i)
{
    return node + kChildOff + 8ull * i;
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

/** Write key slot i (leaf slots carry an integrity checksum). */
void
storeKeySlot(MemAccessor &m, Addr node, unsigned i, std::uint64_t key,
             bool is_leaf)
{
    m.st(keyAddr(node, i), key);
    m.st(keyAddr(node, i) + 8, is_leaf ? nodeChecksum(key) : 0);
}

/** Publish a new meta word (count and/or leaf bit) durably. */
void
publishMeta(MemAccessor &m, Addr node, bool is_leaf, unsigned count)
{
    m.st(node, metaWord(is_leaf, count));
    m.wb(node);
    m.barrier();
}

/** First index whose key is > @p key (keys are sorted within a node). */
unsigned
upperBound(MemAccessor &m, Addr node, unsigned count, std::uint64_t key)
{
    unsigned i = 0;
    while (i < count && m.ld(keyAddr(node, i)) <= key)
        ++i;
    return i;
}

/**
 * Insert (key, right child) into a non-full interior node at position
 * @p pos, shifting greater slots right. Slots persist before the count;
 * a crash mid-shift at worst duplicates a child link.
 */
void
insertIntoNode(MemAccessor &m, Addr node, unsigned pos, std::uint64_t key,
               Addr right_child)
{
    unsigned count = metaCount(m.ld(node));
    BBB_ASSERT(count < kFanout, "insert into full btree node");

    for (unsigned i = count; i > pos; --i) {
        m.st(keyAddr(node, i), m.ld(keyAddr(node, i - 1)));
        m.st(childAddr(node, i + 1), m.ld(childAddr(node, i)));
    }
    storeKeySlot(m, node, pos, key, false);
    m.st(childAddr(node, pos + 1), right_child);
    m.persistObject(node + kKeysOff, kNodeBytes - kKeysOff);
    publishMeta(m, node, false, count + 1);
}

/**
 * Insert @p key into a non-full leaf copy-on-write: a fresh leaf takes
 * the merged slots and one pointer store through @p link publishes it.
 * Shifting a published leaf's slots in place is not crash-atomic even
 * under strict persistency: a slot is two stores, so a crash between a
 * shifted key and its checksum leaves a slot that matches neither.
 */
void
insertIntoLeaf(MemAccessor &m, PersistentHeap &heap, unsigned arena,
               Addr link, Addr leaf, unsigned pos, std::uint64_t key)
{
    unsigned count = metaCount(m.ld(leaf));
    BBB_ASSERT(count < kFanout, "insert into full btree leaf");

    Addr fresh = heap.alloc(arena, kNodeBytes, 64);
    for (unsigned i = 0, from = 0; i <= count; ++i)
        storeKeySlot(m, fresh, i, i == pos ? key : m.ld(keyAddr(leaf, from++)),
                     true);
    m.persistObject(fresh, kNodeBytes);
    publishMeta(m, fresh, true, count + 1);
    m.st(link, fresh);
    m.wb(link);
    m.barrier();
}

/**
 * Split a full node: the upper half moves to a new sibling, the median
 * key is returned for the parent. The sibling is fully persistent before
 * the old node's shrunken count publishes.
 *
 * @return {median key, sibling address}.
 */
std::pair<std::uint64_t, Addr>
splitNode(MemAccessor &m, PersistentHeap &heap, unsigned arena, Addr node)
{
    std::uint64_t meta = m.ld(node);
    bool is_leaf = metaIsLeaf(meta);
    unsigned count = metaCount(meta);
    BBB_ASSERT(count == kFanout, "splitting non-full btree node");
    constexpr unsigned kMid = kFanout / 2;

    std::uint64_t median = m.ld(keyAddr(node, kMid));
    Addr sibling = heap.alloc(arena, kNodeBytes, 64);

    // Leaves keep the median in the right half (B+-tree style, so leaf
    // checksums cover every key); interior nodes push it to the parent.
    unsigned first_right = is_leaf ? kMid : kMid + 1;
    unsigned moved = count - first_right;
    for (unsigned i = 0; i < moved; ++i) {
        std::uint64_t k = m.ld(keyAddr(node, first_right + i));
        storeKeySlot(m, sibling, i, k, is_leaf);
        if (!is_leaf) {
            m.st(childAddr(sibling, i),
                 m.ld(childAddr(node, first_right + i)));
        }
    }
    if (!is_leaf) {
        m.st(childAddr(sibling, moved),
             m.ld(childAddr(node, count)));
    }
    m.persistObject(sibling, kNodeBytes);
    publishMeta(m, sibling, is_leaf, moved);

    publishMeta(m, node, is_leaf, kMid);
    return {median, sibling};
}

} // namespace

void
BtreeWorkload::insert(MemAccessor &m, PersistentHeap &heap, unsigned arena,
                      Addr root_slot, std::uint64_t key)
{
    Addr root = m.ld(root_slot);
    if (root == 0) {
        Addr leaf = heap.alloc(arena, kNodeBytes, 64);
        storeKeySlot(m, leaf, 0, key, true);
        m.persistObject(leaf, kNodeBytes);
        publishMeta(m, leaf, true, 1);
        m.st(root_slot, leaf);
        m.wb(root_slot);
        m.barrier();
        return;
    }

    // Split-on-the-way-down: every node we descend into has a free slot,
    // so splits never propagate upward more than one level at a time.
    if (metaCount(m.ld(root)) == kFanout) {
        auto [median, sibling] = splitNode(m, heap, arena, root);
        Addr new_root = heap.alloc(arena, kNodeBytes, 64);
        storeKeySlot(m, new_root, 0, median, false);
        m.st(childAddr(new_root, 0), root);
        m.st(childAddr(new_root, 1), sibling);
        m.persistObject(new_root, kNodeBytes);
        publishMeta(m, new_root, false, 1);
        m.st(root_slot, new_root);
        m.wb(root_slot);
        m.barrier();
        root = new_root;
    }

    Addr node = root;
    Addr link = root_slot; // the pointer that publishes `node`
    unsigned depth = 0;
    for (;;) {
        BBB_ASSERT(++depth < kMaxDepth, "btree descend runaway");
        std::uint64_t meta = m.ld(node);
        unsigned count = metaCount(meta);
        unsigned pos = upperBound(m, node, count, key);

        if (metaIsLeaf(meta)) {
            insertIntoLeaf(m, heap, arena, link, node, pos, key);
            return;
        }

        Addr child = m.ld(childAddr(node, pos));
        if (metaCount(m.ld(child)) == kFanout) {
            auto [median, sibling] = splitNode(m, heap, arena, child);
            insertIntoNode(m, node, pos, median, sibling);
            if (key > median) {
                child = sibling;
                ++pos;
            }
        }
        link = childAddr(node, pos);
        node = child;
    }
}

void
BtreeWorkload::prepare(System &sys)
{
    Rng rng(_p.seed ^ 0xb7ee);
    forEachArena(sys, [&](MemAccessor &m, unsigned t) {
        Addr root_slot = sys.heap().rootAddr(t);
        m.st(root_slot, 0);
        for (std::uint64_t i = 0; i < _p.initial_elements; ++i)
            insert(m, sys.heap(), t, root_slot, rng.next());
    });
}

void
BtreeWorkload::runThread(ThreadContext &tc, unsigned tid)
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
BtreeWorkload::walk(ImageWalk &w, const PmemImage &img) const
{
    for (unsigned t = _first; t < _end; ++t) {
        Addr root_slot = imageRootAddr(img.addrMap(), t);
        Addr root = img.read64(root_slot);
        if (root == 0)
            continue;
        if (auto why = walkNode(w, img, t, root, 0))
            w.cut(root_slot, 0, 1, *why);
    }
}

std::optional<ImageWalk::Damage>
BtreeWorkload::walkNode(ImageWalk &w, const PmemImage &img, unsigned tid,
                        Addr node, unsigned depth) const
{
    using Damage = ImageWalk::Damage;
    if (node == 0 || !img.validPersistent(node) || depth > kMaxDepth)
        return Damage::Dangling;
    std::uint64_t meta = img.read64(node);
    bool is_leaf = metaIsLeaf(meta);
    unsigned count = metaCount(meta);
    if (count > kFanout)
        return Damage::Torn; // garbage meta: nothing in the node is sound

    unsigned keep = count;
    std::optional<Damage> why;
    if (is_leaf) {
        // Keep the longest checksum-valid slot prefix.
        for (unsigned i = 0; i < count && !why; ++i) {
            std::uint64_t key = img.read64(keyAddr(node, i));
            if (img.read64(keyAddr(node, i) + 8) == nodeChecksum(key)) {
                w.key(tid, key);
            } else {
                keep = i;
                why = Damage::Torn;
            }
        }
        w.keep(node, kNodeBytes, 0);
    } else {
        // Interior keys carry no checksum; a key is only as good as the
        // children flanking it. Keep the longest usable-children prefix.
        unsigned usable = 0;
        for (; usable <= count; ++usable) {
            why = walkNode(w, img, tid, img.read64(childAddr(node, usable)),
                           depth + 1);
            if (why)
                break;
        }
        if (usable == 0)
            return why;
        keep = usable - 1;
        w.keep(node, kNodeBytes, keep);
    }
    if (keep != count)
        w.cut(node, metaWord(is_leaf, keep), count - keep, *why);
    return std::nullopt;
}

} // namespace bbb
