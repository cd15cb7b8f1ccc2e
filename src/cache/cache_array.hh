/**
 * @file
 * Generic set-associative tag/data array.
 *
 * The array keeps tags apart from line payloads. A dense tag array holds
 * each line's block (kBadAddr marks an invalid way) and its replacement
 * stamp; find(), victim(), touch(), invalidate() and forEachValid() scan
 * only the tags. The payload array holds the template parameter @p Line
 * (MESI state plus data for the L1; dirty/persistent bits, directory info
 * and data for the LLC). It is allocated uninitialised, and fill()
 * constructs a line's payload when a block is installed, so building an
 * array writes only its tags and page-faults none of its payload.
 *
 * A line's block and validity live only in the tag array: callers ask the
 * array (blockOf(), isValid()) rather than the line. A payload is
 * readable from fill() until invalidate(); ASan builds poison it outside
 * that window, so a read of a payload fill() never constructed is caught.
 */

#ifndef BBB_CACHE_CACHE_ARRAY_HH
#define BBB_CACHE_CACHE_ARRAY_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "cache/replacement.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#endif

namespace bbb
{

/**
 * Set-associative array of @p Line payloads. @p Line must be trivially
 * destructible: payloads are constructed by fill() and simply abandoned by
 * invalidate() and the destructor.
 */
template <typename Line>
class CacheArray
{
    static_assert(std::is_trivially_destructible_v<Line>,
                  "cache line payloads are never destroyed");

  public:
    CacheArray(std::uint64_t size_bytes, unsigned assoc,
               ReplPolicy policy = ReplPolicy::Lru, std::uint64_t seed = 7)
        : _assoc(assoc), _stamper(policy, seed)
    {
        BBB_ASSERT(assoc > 0, "associativity must be positive");
        std::uint64_t lines = size_bytes / kBlockSize;
        BBB_ASSERT(lines >= assoc && lines % assoc == 0,
                   "cache size %llu not divisible into %u-way sets",
                   (unsigned long long)size_bytes, assoc);
        _sets = lines / assoc;
        _tags.resize(lines);
        _payload = Payload(std::allocator<Line>().allocate(lines),
                           PayloadFree{lines});
        poison(_payload.get(), lines);
    }

    std::uint64_t numSets() const { return _sets; }
    unsigned assoc() const { return _assoc; }
    std::uint64_t numLines() const { return _tags.size(); }

    /** Set index of a block address. */
    std::uint64_t
    setIndex(Addr block) const
    {
        return (block >> kBlockShift) % _sets;
    }

    /** Find the valid line holding @p block, or nullptr. */
    Line *
    find(Addr block)
    {
        block = blockAlign(block);
        std::size_t base = setIndex(block) * _assoc;
        for (unsigned w = 0; w < _assoc; ++w) {
            if (_tags[base + w].block == block)
                return &_payload[base + w];
        }
        return nullptr;
    }

    const Line *
    find(Addr block) const
    {
        return const_cast<CacheArray *>(this)->find(block);
    }

    /** Whether @p line (a slot of this array) holds a block. */
    bool
    isValid(const Line &line) const
    {
        return _tags[indexOf(line)].block != kBadAddr;
    }

    /** Block held by @p line, or kBadAddr if it is invalid. */
    Addr
    blockOf(const Line &line) const
    {
        return _tags[indexOf(line)].block;
    }

    /** Refresh a line's recency per the replacement policy. */
    void
    touch(Line &line)
    {
        std::uint64_t s = _stamper.onTouch();
        if (s)
            _tags[indexOf(line)].stamp = s;
    }

    /**
     * Pick the victim line for installing @p block: the first invalid way,
     * else the first way with the smallest stamp. The caller is responsible
     * for evicting the victim's previous contents, then calls fill().
     */
    Line &
    victim(Addr block)
    {
        std::size_t base = setIndex(blockAlign(block)) * _assoc;
        std::size_t best = base;
        for (std::size_t i = base; i < base + _assoc; ++i) {
            if (_tags[i].block == kBadAddr)
                return _payload[i];
            if (_tags[i].stamp < _tags[best].stamp)
                best = i;
        }
        return _payload[best];
    }

    /** Install @p block in @p line and construct its payload as Line{}
     *  (the caller then sets type-specific state). */
    void
    fill(Line &line, Addr block)
    {
        std::size_t i = indexOf(line);
        _tags[i] = Tag{blockAlign(block), _stamper.onFill()};
        unpoison(&line, 1);
        ::new (static_cast<void *>(&line)) Line{};
    }

    /** Invalidate a line; its payload is dead until the next fill(). */
    void
    invalidate(Line &line)
    {
        _tags[indexOf(line)] = Tag{};
        poison(&line, 1);
    }

    /** Apply @p fn(block, line) to every valid line in index order.
     *  Templated (not std::function) so per-line callbacks inline into
     *  the scan loop. */
    template <typename Fn>
    void
    forEachValid(Fn &&fn)
    {
        for (std::size_t i = 0; i < _tags.size(); ++i) {
            if (_tags[i].block != kBadAddr)
                fn(_tags[i].block, _payload[i]);
        }
    }

    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (std::size_t i = 0; i < _tags.size(); ++i) {
            if (_tags[i].block != kBadAddr)
                fn(_tags[i].block, static_cast<const Line &>(_payload[i]));
        }
    }

  private:
    /** One way's tag: the block it holds (kBadAddr = invalid) and its
     *  replacement stamp. */
    struct Tag
    {
        Addr block = kBadAddr;
        std::uint64_t stamp = 0;
    };

    /** Frees the payload array, unpoisoning it first so the allocator
     *  may reuse the memory. */
    struct PayloadFree
    {
        std::size_t lines;

        void
        operator()(Line *p) const
        {
            unpoison(p, lines);
            std::allocator<Line>().deallocate(p, lines);
        }
    };
    using Payload = std::unique_ptr<Line[], PayloadFree>;

    std::size_t
    indexOf(const Line &line) const
    {
        return static_cast<std::size_t>(&line - _payload.get());
    }

    // Poisoning is exact for payloads whose size is a multiple of 8 B; a
    // payload that straddles an 8-byte granule with a live neighbour keeps
    // that sliver readable.
    static void
    poison([[maybe_unused]] const Line *p, [[maybe_unused]] std::size_t n)
    {
#ifdef __SANITIZE_ADDRESS__
        ASAN_POISON_MEMORY_REGION(p, n * sizeof(Line));
#endif
    }

    static void
    unpoison([[maybe_unused]] const Line *p, [[maybe_unused]] std::size_t n)
    {
#ifdef __SANITIZE_ADDRESS__
        ASAN_UNPOISON_MEMORY_REGION(p, n * sizeof(Line));
#endif
    }

    std::uint64_t _sets;
    unsigned _assoc;
    ReplStamper _stamper;
    std::vector<Tag> _tags;
    Payload _payload;
};

} // namespace bbb

#endif // BBB_CACHE_CACHE_ARRAY_HH
