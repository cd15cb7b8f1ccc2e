/**
 * @file
 * RecoveryManager: closes the crash–recover–resume loop.
 *
 * After a crash (and possibly fault-ledger damage from the fault
 * injector) the backing store holds whatever survived. The manager runs
 * the workload's recover() procedure against that image through a
 * RecoveryCtx that tracks repair writes and live high-water marks, then
 * re-validates the repaired image with the workload's checkRecovery() —
 * the same structural walk, counting. A recovery that wrote nothing
 * already walked those bytes, so its own count is the check and the
 * walk runs again only after a repair or normalization write. The
 * result is a structured status — never an assert:
 *
 *   Clean             image needed no repairs; resume directly.
 *   DegradedRepaired  torn/damaged tails were unlinked; the surviving
 *                     prefix is consistent and the machine resumes with
 *                     reduced state (graceful degradation).
 *   Unrecoverable     the heap header is gone or the repaired image still
 *                     fails its consistency walk; resuming is unsafe.
 *
 * A recovered image plus the context's frontiers feed reseedSystem(),
 * which prepares a fresh System to continue where the old one crashed.
 */

#ifndef BBB_RECOVER_RECOVERY_MANAGER_HH
#define BBB_RECOVER_RECOVERY_MANAGER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/addr_map.hh"
#include "mem/backing_store.hh"
#include "persist/palloc.hh"
#include "persist/recovery.hh"

namespace bbb
{

class System;
class Workload;
struct RecoveryResult;

/** Classified outcome of a recovery attempt. */
enum class RecoveryStatus
{
    Clean,
    DegradedRepaired,
    Unrecoverable,
};

const char *recoveryStatusName(RecoveryStatus s);

/**
 * Mutable view of the post-crash image handed to Workload::recover().
 *
 * Repair writes go straight to the media image (recovery runs on the
 * rebooted machine, outside the timing model). The context doubles as the
 * live high-water tracker: recover() notes every object it keeps, and the
 * resulting per-arena frontiers seed the resumed machine's allocator so
 * new allocations never overwrite surviving data. Orphaned objects the
 * walk does not reach may be reallocated — new objects are fully written
 * before publication, so that is safe.
 */
class RecoveryCtx
{
  public:
    RecoveryCtx(BackingStore &store, const AddrMap &map, unsigned arenas)
        : _store(store), _map(map), _geom(_map, arenas)
    {
    }

    RecoveryCtx(const RecoveryCtx &) = delete;
    RecoveryCtx &operator=(const RecoveryCtx &) = delete;

    /** Fresh bounds-checked read view of the image under repair. */
    PmemImage image() const { return PmemImage(_store, _map); }

    /** Plain media write (rebuilding content, not counted as repair). */
    void write64(Addr a, std::uint64_t v) { _store.write64(a, v); }

    /** Repair write: unlink/truncate damage. Counted; a repair on an
     *  image with no ledgered damage is an oracle violation upstream. */
    void
    repair64(Addr a, std::uint64_t v)
    {
        _store.write64(a, v);
        ++_repairs;
    }

    /**
     * Normalization write: reconciling volatile-adjacent metadata (e.g.
     * tree parent pointers or colors) that a crash legitimately leaves
     * stale even without faults. Deliberately not counted as a repair.
     */
    void
    normalize64(Addr a, std::uint64_t v)
    {
        _store.write64(a, v);
        ++_normalized;
    }

    /** Record @p n dropped objects/tails (degradation accounting). */
    void noteDropped(std::uint64_t n = 1) { _dropped += n; }

    /**
     * Record a kept object so its arena's frontier clears it. Addresses
     * outside the arena span are ignored (never asserts on image-derived
     * pointers — callers validate reachability separately).
     */
    void
    noteObject(Addr a, std::uint64_t bytes)
    {
        Addr base = _geom.arenaBase(0);
        Addr limit =
            base + static_cast<Addr>(_geom.arenas()) * _geom.arenaSize();
        if (a < base || a >= limit)
            return;
        unsigned ar = _geom.arenaOf(a);
        Addr end = a + bytes;
        Addr arena_end = _geom.arenaBase(ar) + _geom.arenaSize();
        if (end > arena_end)
            end = arena_end;
        if (end > _geom.frontier(ar))
            _geom.setFrontier(ar, end);
    }

    /** Allocate fresh space above the live high-water (rebuilds). */
    Addr
    alloc(unsigned arena, std::uint64_t bytes, std::uint64_t align = 8)
    {
        return _geom.alloc(arena, bytes, align);
    }

    std::uint64_t repairs() const { return _repairs; }
    std::uint64_t normalized() const { return _normalized; }
    std::uint64_t dropped() const { return _dropped; }

    /** Per-arena live high-water marks (resume allocator frontiers). */
    std::vector<Addr>
    frontiers() const
    {
        std::vector<Addr> f;
        f.reserve(_geom.arenas());
        for (unsigned a = 0; a < _geom.arenas(); ++a)
            f.push_back(_geom.frontier(a));
        return f;
    }

  private:
    BackingStore &_store;
    AddrMap _map;
    /** Geometry + frontier bookkeeping; frontiers start at arena bases
     *  and rise as recover() notes surviving objects. */
    PersistentHeap _geom;
    std::uint64_t _repairs = 0;
    std::uint64_t _normalized = 0;
    std::uint64_t _dropped = 0;
};

/** Everything a caller needs to resume (or refuse to resume). */
struct RecoverOutcome
{
    RecoveryStatus status = RecoveryStatus::Unrecoverable;
    /** Damage-driven repair writes performed. */
    std::uint64_t repairs = 0;
    /** Benign metadata normalization writes (not damage). */
    std::uint64_t normalized = 0;
    /** Tails/subtrees unlinked by the repairs. */
    std::uint64_t dropped = 0;
    /** checkRecovery() of the recovered image. */
    RecoveryResult verify;
    /** Per-arena live high-water marks for the resumed allocator. */
    std::vector<Addr> frontiers;
    /** Failure explanation when unrecoverable. */
    std::string detail;

    bool resumable() const { return status != RecoveryStatus::Unrecoverable; }
};

/** Runs a workload's recovery procedure over a post-crash image. */
class RecoveryManager
{
  public:
    /**
     * @p image is repaired in place. @p arenas must match the crashed
     * machine's core count (heap geometry).
     */
    RecoveryManager(BackingStore &image, const AddrMap &map,
                    unsigned arenas)
        : _image(image), _map(map), _arenas(arenas)
    {
    }

    RecoverOutcome recover(const Workload &wl);

  private:
    BackingStore &_image;
    AddrMap _map;
    unsigned _arenas;
};

/**
 * Seed a fresh, not-yet-run System from a recovered image: clones the
 * image in and restores the heap frontiers recovery reported. Follow with
 * Workload::resume() and run — execution continues where the crashed
 * machine left off.
 */
void reseedSystem(System &sys, const BackingStore &image,
                  const std::vector<Addr> &frontiers);

} // namespace bbb

#endif // BBB_RECOVER_RECOVERY_MANAGER_HH
