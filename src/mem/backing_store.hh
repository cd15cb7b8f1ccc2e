/**
 * @file
 * Sparse functional byte storage for simulated physical memory.
 *
 * The backing store is the *media* content: for the NVMM range it is
 * exactly what survives a power failure (before any flush-on-fail drain is
 * applied). Caches, bbPBs, store buffers, and WPQs hold their own copies;
 * only a media write updates the backing store.
 *
 * Storage is allocated in 4 KiB pages on first touch so an 8+8 GB address
 * space costs only what the workloads actually touch. Each page is its
 * own heap allocation, owned by a vector in first-touch order, so page
 * pointers stay valid until clear(). The index from a page's base
 * address to its page is the repository's open-addressed BlockTable
 * (sim/block_table.hh), which doubles as the image grows.
 *
 * Accesses are dominated by single cache blocks (the memory controller)
 * and 8-byte scalars (root slots, crash repairs), so lookups go through
 * a small direct-mapped cache of page pointers in front of the index.
 * The workload warm-up writes whole pages (ArenaImage, the array
 * prebuild). Copies and moves reset the cache; a moved-from store is
 * empty.
 */

#ifndef BBB_MEM_BACKING_STORE_HH
#define BBB_MEM_BACKING_STORE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "sim/block_table.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace bbb
{

/** Sparse, zero-initialised physical memory image. */
class BackingStore
{
  public:
    static constexpr std::uint64_t kPageSize = 4096;
    static_assert(kPageSize % kBlockSize == 0,
                  "a cache block must never straddle a page");

    BackingStore() : _index(0) {}
    BackingStore(const BackingStore &o) : _index(o._pages.size())
    {
        _pages.reserve(o._pages.size());
        for (const Frame &f : o._pages)
            adopt(f.base, std::make_unique<Page>(*f.bytes));
    }
    BackingStore(BackingStore &&o) noexcept : BackingStore()
    {
        *this = std::move(o);
    }
    BackingStore &
    operator=(const BackingStore &o)
    {
        if (this != &o)
            *this = BackingStore(o);
        return *this;
    }
    /** Take @p o's pages; @p o is left empty and independent. */
    BackingStore &
    operator=(BackingStore &&o) noexcept
    {
        if (this != &o) {
            std::swap(_pages, o._pages);
            std::swap(_index, o._index);
            o.clear();
            resetCache();
        }
        return *this;
    }

    /** Read @p size bytes at @p addr into @p out. Unbacked bytes are 0. */
    void
    read(Addr addr, void *out, std::size_t size) const
    {
        auto *dst = static_cast<unsigned char *>(out);
        while (size > 0) {
            Addr page = addr / kPageSize;
            std::size_t off = addr % kPageSize;
            std::size_t chunk = std::min(size, kPageSize - off);
            const Page *p = lookup(page);
            if (!p)
                std::memset(dst, 0, chunk);
            else
                std::memcpy(dst, p->data() + off, chunk);
            dst += chunk;
            addr += chunk;
            size -= chunk;
        }
    }

    /** Write @p size bytes at @p addr from @p src. */
    void
    write(Addr addr, const void *src, std::size_t size)
    {
        auto *s = static_cast<const unsigned char *>(src);
        while (size > 0) {
            Addr page = addr / kPageSize;
            std::size_t off = addr % kPageSize;
            std::size_t chunk = std::min(size, kPageSize - off);
            Page &p = touch(page);
            std::memcpy(p.data() + off, s, chunk);
            s += chunk;
            addr += chunk;
            size -= chunk;
        }
    }

    /** Read a full cache block: one page lookup, one fixed-size copy
     *  (a block never straddles a page). */
    void
    readBlock(Addr block_addr, void *out) const
    {
        BBB_ASSERT(blockOffset(block_addr) == 0, "unaligned block read");
        const Page *p = lookup(block_addr / kPageSize);
        if (!p)
            std::memset(out, 0, kBlockSize);
        else
            std::memcpy(out, p->data() + block_addr % kPageSize, kBlockSize);
    }

    /** Write a full cache block (one page, like readBlock). */
    void
    writeBlock(Addr block_addr, const void *src)
    {
        BBB_ASSERT(blockOffset(block_addr) == 0, "unaligned block write");
        std::memcpy(touch(block_addr / kPageSize).data() +
                        block_addr % kPageSize,
                    src, kBlockSize);
    }

    /** Convenience scalar accessors (fast path: within one page). */
    std::uint64_t
    read64(Addr addr) const
    {
        std::size_t off = addr % kPageSize;
        if (off + sizeof(std::uint64_t) <= kPageSize) {
            const Page *p = lookup(addr / kPageSize);
            if (!p)
                return 0;
            std::uint64_t v;
            std::memcpy(&v, p->data() + off, sizeof(v));
            return v;
        }
        std::uint64_t v = 0;
        read(addr, &v, sizeof(v));
        return v;
    }

    void
    write64(Addr addr, std::uint64_t v)
    {
        std::size_t off = addr % kPageSize;
        if (off + sizeof(v) <= kPageSize) {
            std::memcpy(touch(addr / kPageSize).data() + off, &v,
                        sizeof(v));
            return;
        }
        // Straddles two pages: the low bytes end this page, the rest
        // start the next.
        const auto *bytes = reinterpret_cast<const unsigned char *>(&v);
        std::size_t low = kPageSize - off;
        std::memcpy(touch(addr / kPageSize).data() + off, bytes, low);
        std::memcpy(touch(addr / kPageSize + 1).data(), bytes + low,
                    sizeof(v) - low);
    }

    /** Number of pages materialised so far. */
    std::size_t pagesTouched() const { return _pages.size(); }

    /** Drop all content (fresh zeroed memory). */
    void
    clear()
    {
        _pages.clear();
        _index.clear();
        resetCache();
    }

    /** Deep copy of the image (used to snapshot the post-crash state). */
    BackingStore clone() const { return *this; }

    /**
     * Content fingerprint (FNV-1a over pages in address order: each
     * page's number, then its bytes). All-zero pages hash like absent
     * ones, so two images are equal-by-content iff their fingerprints
     * match regardless of which pages materialised. Used to compare
     * post-crash images across runs (determinism tests, campaign repro
     * lines).
     *
     * The value is the byte-serial hash's. A zero byte's FNV-1a step is
     * h *= P, so the bytes are walked a word at a time and a run of k
     * zero bytes is folded into one multiply by P^k.
     */
    std::uint64_t
    fingerprint() const
    {
        std::vector<const Frame *> order;
        order.reserve(_pages.size());
        for (const Frame &f : _pages)
            order.push_back(&f);
        std::sort(order.begin(), order.end(),
                  [](const Frame *a, const Frame *b) {
                      return a->base < b->base;
                  });

        constexpr std::size_t kWords = kPageSize / sizeof(std::uint64_t);
        std::uint64_t h = kFnvBasis;
        for (const Frame *f : order) {
            const unsigned char *bytes = f->bytes->data();
            std::size_t w = 0;
            while (w < kWords && loadWord(bytes, w) == 0)
                ++w;
            if (w == kWords)
                continue; // an all-zero page hashes like an absent one
            std::size_t pending = 0;
            mixWord(h, pending, f->base / kPageSize);
            h *= kFnvPow[pending];
            pending = 8 * w;
            for (; w < kWords; ++w)
                mixWord(h, pending, loadWord(bytes, w));
            h *= kFnvPow[pending];
        }
        return h;
    }

  private:
    using Page = std::array<unsigned char, kPageSize>;

    /** One materialised page: its base address and its owned bytes. */
    struct Frame
    {
        Addr base;
        std::unique_ptr<Page> bytes;
    };

    /** Direct-mapped page-pointer cache slots (power of two). */
    static constexpr std::size_t kCacheWays = 64;

    struct CacheEnt
    {
        Addr page = kBadAddr;
        Page *ptr = nullptr; // nullptr with matching page = known absent
    };

    static constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
    static constexpr std::uint64_t kFnvPrime = 1099511628211ull;

    /** kFnvPow[k] = P^k: the FNV-1a step over k zero bytes of a page. */
    static constexpr std::array<std::uint64_t, kPageSize + 1> kFnvPow = [] {
        std::array<std::uint64_t, kPageSize + 1> pow{};
        pow[0] = 1;
        for (std::size_t k = 1; k < pow.size(); ++k)
            pow[k] = pow[k - 1] * kFnvPrime;
        return pow;
    }();

    static_assert(std::endian::native == std::endian::little,
                  "a word's low byte must be its first byte in memory");

    static std::uint64_t
    loadWord(const unsigned char *bytes, std::size_t w)
    {
        std::uint64_t v;
        std::memcpy(&v, bytes + w * sizeof(v), sizeof(v));
        return v;
    }

    /**
     * Hash the 8 bytes of @p word (memory order) into @p h, with
     * @p pending zero bytes not yet applied. A zero word only extends
     * the run; otherwise the run is applied, the bytes up to the highest
     * non-zero one are mixed, and the high zero bytes start a new run.
     */
    static void
    mixWord(std::uint64_t &h, std::size_t &pending, std::uint64_t word)
    {
        if (word == 0) {
            pending += 8;
            return;
        }
        h *= kFnvPow[pending];
        std::size_t n = (std::bit_width(word) + 7) / 8;
        for (std::size_t i = 0; i < n; ++i) {
            h ^= (word >> (8 * i)) & 0xff;
            h *= kFnvPrime;
        }
        pending = 8 - n;
    }

    /** Page lookup through the cache; nullptr if not materialised. */
    Page *
    lookup(Addr page) const
    {
        CacheEnt &e = _cache[page & (kCacheWays - 1)];
        if (e.page != page)
            e = CacheEnt{page, indexed(page)};
        return e.ptr;
    }

    /** The page, materialised on first touch. */
    Page &
    touch(Addr page)
    {
        CacheEnt &e = _cache[page & (kCacheWays - 1)];
        if (e.page != page || !e.ptr)
            e = CacheEnt{page, materialise(page)};
        return *e.ptr;
    }

    /** Page @p page from the index; nullptr if not materialised. */
    Page *
    indexed(Addr page) const
    {
        Page *const *p = _index.find(page * kPageSize);
        return p ? *p : nullptr;
    }

    /** Page @p page, materialising a zeroed one if it is absent. Out of
     *  line, so that only touch()'s cache hit inlines into write64(). */
    [[gnu::noinline]] Page *
    materialise(Addr page)
    {
        Page *p = indexed(page);
        return p ? p : adopt(page * kPageSize, std::make_unique<Page>());
    }

    /** Own @p bytes as the page at @p base (which must be absent). */
    Page *
    adopt(Addr base, std::unique_ptr<Page> bytes)
    {
        Page *p = bytes.get();
        _pages.push_back(Frame{base, std::move(bytes)});
        _index.insertGrowing(base, p);
        return p;
    }

    void
    resetCache() const
    {
        _cache.fill(CacheEnt{});
    }

    std::vector<Frame> _pages;
    BlockTable<Page *> _index;
    mutable std::array<CacheEnt, kCacheWays> _cache{};
};

} // namespace bbb

#endif // BBB_MEM_BACKING_STORE_HH
