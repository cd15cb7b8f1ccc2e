#include "workloads/skiplist.hh"

#include <algorithm>
#include <vector>

#include "recover/recovery_manager.hh"

namespace bbb
{

namespace
{

constexpr unsigned kMaxHeight = SkiplistWorkload::kMaxHeight;
constexpr std::uint64_t kOffKey = SkiplistWorkload::kOffKey;
constexpr std::uint64_t kOffSum = SkiplistWorkload::kOffSum;
constexpr std::uint64_t kOffHeight = SkiplistWorkload::kOffHeight;
constexpr std::uint64_t kOffNext = SkiplistWorkload::kOffNext;

std::uint64_t
nodeBytes(unsigned height)
{
    return kOffNext + 8ull * height;
}

Addr
nextAddr(Addr node, unsigned level)
{
    return node + kOffNext + 8ull * level;
}

/** Geometric height draw: P(h >= k) = 2^-(k-1), capped. */
unsigned
drawHeight(Rng &rng)
{
    unsigned h = 1;
    while (h < kMaxHeight && rng.chance(0.5))
        ++h;
    return h;
}

/** A node kept on level 0 by the recovery walk. */
struct Member
{
    Addr node;
    unsigned height;
    std::uint64_t key;
};

/** Constant-time lookup of a member by node address: open addressing
 *  over a table at most half full. */
class MemberIndex
{
  public:
    /** Index the first entry of each node in @p members, which must
     *  outlive the lookups. */
    void
    build(const std::vector<Member> &members)
    {
        std::size_t size = 16;
        while (size < 2 * members.size())
            size *= 2;
        _mask = size - 1;
        _slots.assign(size, nullptr);
        for (const Member &m : members) {
            std::size_t s = slot(m.node);
            while (_slots[s] && _slots[s]->node != m.node)
                s = (s + 1) & _mask;
            if (!_slots[s])
                _slots[s] = &m;
        }
    }

    const Member *
    find(Addr node) const
    {
        for (std::size_t s = slot(node); _slots[s]; s = (s + 1) & _mask) {
            if (_slots[s]->node == node)
                return _slots[s];
        }
        return nullptr;
    }

  private:
    std::size_t
    slot(Addr node) const
    {
        return static_cast<std::size_t>(mix64(node)) & _mask;
    }

    std::vector<const Member *> _slots;
    std::size_t _mask = 0;
};

} // namespace

Addr
SkiplistWorkload::makeHead(MemAccessor &m, PersistentHeap &heap,
                           unsigned arena)
{
    Addr head = heap.alloc(arena, nodeBytes(kMaxHeight), 8);
    m.st(head + kOffKey, 0);
    m.st(head + kOffSum, nodeChecksum(0));
    m.st(head + kOffHeight, kMaxHeight);
    for (unsigned lvl = 0; lvl < kMaxHeight; ++lvl)
        m.st(nextAddr(head, lvl), 0);
    m.persistObject(head, nodeBytes(kMaxHeight));
    return head;
}

void
SkiplistWorkload::insert(MemAccessor &m, PersistentHeap &heap,
                         unsigned arena, Addr head, std::uint64_t key,
                         Rng &rng)
{
    // Find the predecessor at every level.
    Addr preds[kMaxHeight];
    Addr cur = head;
    unsigned guard = 0;
    for (unsigned lvl = kMaxHeight; lvl-- > 0;) {
        for (;;) {
            Addr next = m.ld(nextAddr(cur, lvl));
            if (next == 0 || m.ld(next + kOffKey) >= key)
                break;
            cur = next;
            BBB_ASSERT(++guard < 1u << 20, "skiplist search runaway");
        }
        preds[lvl] = cur;
    }

    // Build and persist the node with its own next pointers first.
    unsigned height = drawHeight(rng);
    Addr node = heap.alloc(arena, nodeBytes(height), 8);
    m.st(node + kOffKey, key);
    m.st(node + kOffSum, nodeChecksum(key));
    m.st(node + kOffHeight, height);
    for (unsigned lvl = 0; lvl < height; ++lvl)
        m.st(nextAddr(node, lvl), m.ld(nextAddr(preds[lvl], lvl)));
    m.persistObject(node, nodeBytes(height));

    // Link bottom-up: level 0 is the membership commit; the accelerator
    // levels follow, each persisted before the next so every crash point
    // leaves all levels valid subsequences of level 0.
    for (unsigned lvl = 0; lvl < height; ++lvl) {
        m.st(nextAddr(preds[lvl], lvl), node);
        m.wb(nextAddr(preds[lvl], lvl));
        m.barrier();
    }
}

void
SkiplistWorkload::prepare(System &sys)
{
    Rng rng(_p.seed ^ 0x5c1b);
    forEachArena(sys, [&](MemAccessor &m, unsigned t) {
        Addr head = makeHead(m, sys.heap(), t);
        m.st(sys.heap().rootAddr(t), head);
        for (std::uint64_t i = 0; i < _p.initial_elements; ++i)
            insert(m, sys.heap(), t, head, rng.next() | 1, rng);
    });
}

void
SkiplistWorkload::runThread(ThreadContext &tc, unsigned tid)
{
    TcAccessor m(tc);
    Addr head = tc.load64(_sys->heap().rootAddr(tid));
    for (std::uint64_t i = 0; i < _p.ops_per_thread; ++i) {
        std::uint64_t key = tc.rng().next() | 1;
        logOp(tid, key);
        insert(m, _sys->heap(), tid, head, key, tc.rng());
    }
}

void
SkiplistWorkload::walk(ImageWalk &w, const PmemImage &img) const
{
    using Damage = ImageWalk::Damage;
    std::uint64_t limit = (_p.initial_elements + lifeOps() + 8) * 2;
    std::vector<Member> members;
    MemberIndex index;
    std::vector<const Member *> tall;

    for (unsigned t = _first; t < _end; ++t) {
        Addr root = imageRootAddr(img.addrMap(), t);
        Addr head = img.read64(root);
        if (head == 0 || !img.validPersistent(head) ||
            img.read64(head + kOffSum) != nodeChecksum(0) ||
            img.read64(head + kOffHeight) != kMaxHeight) {
            w.lost(t, root, 1);
            continue;
        }
        w.keep(head, nodeBytes(kMaxHeight), 0);

        // Level 0: keep the longest valid sorted prefix; remember each
        // member's height and key for the closure sweep below.
        members.clear();
        Addr link = nextAddr(head, 0);
        Addr node = img.read64(link);
        std::uint64_t guard = 0;
        std::uint64_t prev_key = 0;
        while (node != 0) {
            if (!img.validPersistent(node) || ++guard > limit) {
                w.cut(link, 0, 1, Damage::Dangling);
                break;
            }
            std::uint64_t key = img.read64(node + kOffKey);
            unsigned h =
                static_cast<unsigned>(img.read64(node + kOffHeight));
            if (img.read64(node + kOffSum) != nodeChecksum(key) ||
                key < prev_key || h < 1 || h > kMaxHeight) {
                w.cut(link, 0, 1, Damage::Torn);
                break;
            }
            members.push_back({node, h, key});
            w.keep(node, nodeBytes(h), 0);
            w.key(t, key);
            prev_key = key;
            link = nextAddr(node, 0);
            node = img.read64(link);
        }

        // Index the members by address. A level-0 cycle of equal keys
        // lists a node more than once; the index keeps its first entry.
        index.build(members);

        // Accelerator levels need membership *closure*, not just a cut
        // of the from-head chain: a search enters level lvl at whatever
        // member it descended onto, so every member's next[lvl] —
        // including ones past a from-head cut — is reachable. A dropped
        // node keeps its bytes and reads back checksum-valid, so a
        // stale pointer into one would quietly weave it into the live
        // list on resume. Cut any pointer that does not land on a
        // surviving member that is taller than the level and ahead in
        // key order; losing an accelerator shortcut only slows searches.
        auto levelSound = [&](std::uint64_t from_key, Addr n,
                              unsigned lvl) {
            if (n == 0)
                return true;
            const Member *m = index.find(n);
            return m && m->height > lvl && m->key >= from_key;
        };
        // The sweep visits each node once, in address order.
        tall.clear();
        for (const Member &m : members) {
            if (m.height > 1 && index.find(m.node) == &m)
                tall.push_back(&m);
        }
        std::sort(tall.begin(), tall.end(),
                  [](const Member *a, const Member *b) {
                      return a->node < b->node;
                  });
        for (unsigned lvl = 1; lvl < kMaxHeight; ++lvl) {
            // Only members taller than lvl have a next[lvl] field; the
            // ones left are visited again at the next level up.
            std::erase_if(tall, [lvl](const Member *m) {
                return m->height <= lvl;
            });
            Addr hl = nextAddr(head, lvl);
            if (!levelSound(0, img.read64(hl), lvl))
                w.cut(hl, 0, 0, Damage::Dangling);
            for (const Member *m : tall) {
                Addr l = nextAddr(m->node, lvl);
                if (!levelSound(m->key, img.read64(l), lvl))
                    w.cut(l, 0, 0, Damage::Dangling);
            }
        }
    }
}

Addr
SkiplistWorkload::rebuildRoot(RecoveryCtx &ctx, unsigned tid) const
{
    // The head was the first allocation in this arena, so the rebuild
    // lands at the arena base; the list restarts empty.
    Addr fresh = ctx.alloc(tid, nodeBytes(kMaxHeight), 8);
    ctx.write64(fresh + kOffKey, 0);
    ctx.write64(fresh + kOffSum, nodeChecksum(0));
    ctx.write64(fresh + kOffHeight, kMaxHeight);
    for (unsigned lvl = 0; lvl < kMaxHeight; ++lvl)
        ctx.write64(nextAddr(fresh, lvl), 0);
    return fresh;
}

} // namespace bbb
