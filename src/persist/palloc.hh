/**
 * @file
 * Persistent heap allocator over the simulated NVMM persistent range.
 *
 * Models the paper's assumption that persistent data lives in pages
 * allocated by a persistent allocator (palloc): everything this heap hands
 * out maps to the persistent portion of the physical address space, so
 * stores to it are persisting stores.
 *
 * Layout:
 *   persistBase() + 0        : 8-byte magic
 *   persistBase() + 8        : 64 root pointer slots (8 B each), one
 *                              per simulated core at the 64-core limit
 *   persistBase() + 4 KiB    : per-arena bump regions
 *
 * The bump frontiers themselves are volatile simulator metadata: the
 * workloads' recovery procedures navigate from the root slots only, which
 * is how the paper's recovery code is written too.
 */

#ifndef BBB_PERSIST_PALLOC_HH
#define BBB_PERSIST_PALLOC_HH

#include <cstdint>
#include <vector>

#include "mem/addr_map.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace bbb
{

/** Bump allocator in the persistent address range, one arena per thread. */
class PersistentHeap
{
  public:
    static constexpr std::uint64_t kMagic = 0xBBB0'0001'CAFE'F00Dull;
    static constexpr unsigned kRootSlots = 64;
    static constexpr std::uint64_t kHeaderBytes = 4096;
    static_assert(8 + kRootSlots * 8 <= kHeaderBytes,
                  "root slots must fit in the heap header");

    PersistentHeap(const AddrMap &map, unsigned arenas)
        : _map(map), _arenas(arenas)
    {
        BBB_ASSERT(arenas > 0, "heap needs at least one arena");
        Addr base = map.persistBase() + kHeaderBytes;
        std::uint64_t usable = map.persistSize() - kHeaderBytes;
        _arena_size = usable / arenas;
        _frontiers.reserve(arenas);
        for (unsigned a = 0; a < arenas; ++a)
            _frontiers.push_back(base + a * _arena_size);
    }

    /** Address of the magic word. */
    Addr magicAddr() const { return _map.persistBase(); }

    /** Address of root pointer slot @p slot. */
    Addr rootAddr(unsigned slot) const { return rootAddr(_map, slot); }

    /** Address of root pointer slot @p slot in any image laid out over
     *  @p map (post-crash images have no heap object). */
    static Addr
    rootAddr(const AddrMap &map, unsigned slot)
    {
        BBB_ASSERT(slot < kRootSlots, "root slot %u out of range", slot);
        return map.persistBase() + 8 + slot * 8ull;
    }

    /**
     * Allocate @p bytes in @p arena with the given alignment. Pure
     * metadata operation: no simulated memory traffic (the caller's
     * stores initialise the object).
     */
    Addr
    alloc(unsigned arena, std::uint64_t bytes, std::uint64_t align = 8)
    {
        BBB_ASSERT(arena < _arenas, "arena %u out of range", arena);
        BBB_ASSERT(bytes > 0, "zero-byte allocation");
        Addr &frontier = _frontiers[arena];
        Addr a = (frontier + align - 1) & ~(align - 1);
        // Keep sub-block objects within one cache block so the workloads'
        // <=8-byte accesses never straddle blocks.
        if (bytes <= kBlockSize &&
            blockAlign(a) != blockAlign(a + bytes - 1)) {
            a = blockAlign(a) + kBlockSize;
        }
        Addr limit = arenaBase(arena) + _arena_size;
        BBB_ASSERT(a + bytes <= limit, "arena %u exhausted", arena);
        frontier = a + bytes;
        return a;
    }

    Addr
    arenaBase(unsigned arena) const
    {
        return _map.persistBase() + kHeaderBytes + arena * _arena_size;
    }

    std::uint64_t arenaSize() const { return _arena_size; }
    unsigned arenas() const { return _arenas; }

    /** Bytes allocated so far in an arena. */
    std::uint64_t
    allocated(unsigned arena) const
    {
        return _frontiers.at(arena) - arenaBase(arena);
    }

    /** Current bump frontier of an arena. */
    Addr frontier(unsigned arena) const { return _frontiers.at(arena); }

    /**
     * Restore an arena's bump frontier (crash-recover-resume). Recovery
     * walks the surviving structures and reports the highest live byte
     * per arena; seeding the frontiers there keeps a resumed run from
     * allocating over data the previous lives still reference.
     */
    void
    setFrontier(unsigned arena, Addr frontier)
    {
        BBB_ASSERT(arena < _arenas, "arena %u out of range", arena);
        BBB_ASSERT(frontier >= arenaBase(arena) &&
                       frontier <= arenaBase(arena) + _arena_size,
                   "frontier %#llx outside arena %u",
                   (unsigned long long)frontier, arena);
        _frontiers[arena] = frontier;
    }

    /** Arena containing persistent address @p a (fatal if none). */
    unsigned
    arenaOf(Addr a) const
    {
        Addr base = _map.persistBase() + kHeaderBytes;
        BBB_ASSERT(a >= base && a < base + _arenas * _arena_size,
                   "address %#llx not in any arena",
                   (unsigned long long)a);
        return static_cast<unsigned>((a - base) / _arena_size);
    }

  private:
    const AddrMap &_map;
    unsigned _arenas;
    std::uint64_t _arena_size;
    std::vector<Addr> _frontiers;
};

} // namespace bbb

#endif // BBB_PERSIST_PALLOC_HH
