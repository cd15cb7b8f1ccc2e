/**
 * @file
 * Memory accessor abstraction for workload data-structure code.
 *
 * Workload logic (tree inserts, hash chains, ...) is written once against
 * MemAccessor and reused in three bindings:
 *
 *  - TcAccessor: timed execution through a ThreadContext (the measured
 *    run; writeBack/persistBarrier map to the persistency instructions,
 *    which the mode may turn into no-ops).
 *  - ArenaImage: functional execution into a flat host buffer that
 *    mirrors one empty heap arena, committed to the backing store a page
 *    at a time (workload warm-up / pre-building, like a simulator
 *    fast-forward phase).
 *  - ImageAccessor: functional execution word by word against the
 *    backing store; the reference an ArenaImage prebuild must match.
 */

#ifndef BBB_WORKLOADS_ACCESSOR_HH
#define BBB_WORKLOADS_ACCESSOR_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cpu/core.hh"
#include "mem/backing_store.hh"
#include "persist/palloc.hh"
#include "sim/types.hh"

namespace bbb
{

/** Abstract 64-bit memory access interface for workload code. */
class MemAccessor
{
  public:
    virtual ~MemAccessor() = default;

    virtual std::uint64_t ld(Addr a) = 0;
    virtual void st(Addr a, std::uint64_t v) = 0;

    /** Persistency instructions; no-ops in the functional binding. */
    virtual void wb(Addr) {}
    virtual void barrier() {}

    /** Convenience: persist one just-written object (PMEM style). */
    void
    persistObject(Addr base, std::uint64_t bytes)
    {
        for (Addr b = blockAlign(base); b < base + bytes; b += kBlockSize)
            wb(b);
        barrier();
    }
};

/** Timed accessor: every access goes through the core model. */
class TcAccessor : public MemAccessor
{
  public:
    explicit TcAccessor(ThreadContext &tc) : _tc(tc) {}

    std::uint64_t ld(Addr a) override { return _tc.load64(a); }
    void st(Addr a, std::uint64_t v) override { _tc.store64(a, v); }
    void wb(Addr a) override { _tc.writeBack(a); }
    void barrier() override { _tc.persistBarrier(); }

    ThreadContext &tc() { return _tc; }

  private:
    ThreadContext &_tc;
};

/** Functional accessor: reads/writes the media image directly. */
class ImageAccessor : public MemAccessor
{
  public:
    explicit ImageAccessor(BackingStore &store) : _store(store) {}

    std::uint64_t ld(Addr a) override { return _store.read64(a); }
    void st(Addr a, std::uint64_t v) override { _store.write64(a, v); }

  private:
    BackingStore &_store;
};

/**
 * Functional accessor that builds one empty heap arena at a time in a
 * contiguous host buffer. open(arena) starts a window [base, end) over
 * the arena: the base is its first 8-aligned word and the end is one past
 * the furthest word stored so far, so the window grows as stores reach
 * further into the arena. A load or store inside the window is one
 * indexed access; every other word (the root slots in the heap header)
 * goes straight to the image.
 *
 * commit() writes each page that a store reached into the image and
 * closes the window; the next open() reuses the buffer. Because the arena
 * starts empty, the image then holds byte for byte, page for page, what
 * the same stores through an ImageAccessor would have left. Words are
 * 8-aligned, as every heap object's fields are.
 */
class ArenaImage final : public MemAccessor
{
  public:
    ArenaImage(BackingStore &store, const PersistentHeap &heap)
        : _store(store), _heap(heap)
    {
    }

    /** Open the window over @p arena, which must still be empty. */
    void
    open(unsigned arena)
    {
        BBB_ASSERT(_limit == 0, "a prebuild window is already open");
        BBB_ASSERT(_heap.allocated(arena) == 0,
                   "arena %u is not empty: a flat prebuild window needs a "
                   "fresh arena",
                   arena);
        Addr base = _heap.arenaBase(arena);
        _base = (base + 7) & ~Addr{7};
        _limit = base + _heap.arenaSize() - _base;
        _first_page = _base / kPage;
    }

    std::uint64_t
    ld(Addr a) override
    {
        Addr off = a - _base;
        if (off < _end)
            return _words[off / 8];
        return _store.read64(a);
    }

    void
    st(Addr a, std::uint64_t v) override
    {
        Addr off = a - _base;
        if (off >= _end)
            return stPastWindow(a, v);
        _words[off / 8] = v;
        _stored[a / kPage - _first_page] = 1;
    }

    /** Write every page a store reached into the image and close the
     *  window (until the next open(), accesses go to the image). */
    void
    commit()
    {
        Addr end = windowEnd();
        for (std::size_t p = 0; p < _stored.size(); ++p) {
            if (!_stored[p])
                continue;
            Addr lo = std::max(_base, (_first_page + p) * kPage);
            Addr hi = std::min(end, (_first_page + p + 1) * kPage);
            _store.write(lo, &_words[(lo - _base) / 8], hi - lo);
        }
        std::fill(_stored.begin(), _stored.end(), 0);
        _end = _limit = 0;
    }

    /** One past the window's last word. */
    Addr windowEnd() const { return _base + _end; }

  private:
    static constexpr Addr kPage = BackingStore::kPageSize;
    static constexpr std::size_t kPageWords = kPage / 8;

    /**
     * A store past the window: outside the arena it goes to the image;
     * inside, the window extends through it. The words it skips were
     * never stored in this arena, so they must read 0 (the buffer past
     * the window may hold an earlier arena's words). Out of line, so
     * that st()'s in-window path needs no stack frame.
     */
    [[gnu::noinline]] void
    stPastWindow(Addr a, std::uint64_t v)
    {
        Addr off = a - _base;
        if (off >= _limit) {
            _store.write64(a, v);
            return;
        }
        if (off / 8 >= _words.size()) {
            BBB_ASSERT(off % 8 == 0, "unaligned store at arena offset %#llx",
                       (unsigned long long)off);
            // A page of words at a time (the vector's capacity grows
            // geometrically underneath), with one flag per image page
            // the buffer can reach from _first_page.
            _words.resize((off / 8 / kPageWords + 1) * kPageWords);
            _stored.resize(_words.size() / kPageWords + 1);
        }
        for (Addr w = _end / 8; w < off / 8; ++w)
            _words[w] = 0;
        _end = off + 8;
        _words[off / 8] = v;
        _stored[a / kPage - _first_page] = 1;
    }

    BackingStore &_store;
    const PersistentHeap &_heap;
    /** The open window's base, and the arena's bytes from it (0 while
     *  closed, so that every access goes to the image). */
    Addr _base = 0;
    std::uint64_t _limit = 0;
    Addr _first_page = 0;
    /** Window size in bytes: _words holds at least this many, and
     *  those past it are stale. */
    std::uint64_t _end = 0;
    std::vector<std::uint64_t> _words;
    /** Per image page from _first_page on: whether a store reached it. */
    std::vector<unsigned char> _stored;
};

/** 64-bit mixer used for keys and integrity checksums. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

/** Checksum binding a node's payload fields together. */
inline std::uint64_t
nodeChecksum(std::uint64_t a, std::uint64_t b = 0, std::uint64_t c = 0)
{
    return mix64(a ^ mix64(b) ^ mix64(c) ^ 0xbbbb'5eed'0123'4567ull);
}

} // namespace bbb

#endif // BBB_WORKLOADS_ACCESSOR_HH
