/**
 * @file
 * Post-crash NVMM image access for recovery procedures.
 *
 * After the crash engine applies the flush-on-fail drains, the backing
 * store holds exactly the bytes that survived the failure. Recovery code
 * (workload consistency checkers, the RecoveryManager, example programs)
 * reads the image through this wrapper, which has no timing model:
 * recovery runs on the machine after reboot.
 *
 * Every read is bounds-checked against the address map. A wild pointer in
 * a damaged structure must surface as a classified recovery error, never
 * as undefined behavior: out-of-range reads return zeroed bytes and bump
 * a counter that Workload::checkRecovery() folds into RecoveryResult::oob.
 */

#ifndef BBB_PERSIST_RECOVERY_HH
#define BBB_PERSIST_RECOVERY_HH

#include <cstdint>
#include <cstring>

#include "mem/addr_map.hh"
#include "mem/backing_store.hh"
#include "sim/types.hh"

namespace bbb
{

/** Read-only view of the post-crash persistent memory image. */
class PmemImage
{
  public:
    PmemImage(const BackingStore &store, const AddrMap &map)
        : _store(store), _map(map)
    {
    }

    /** The walks' hot read: read()'s bounds rule, then the store's
     *  one-page fast path. */
    std::uint64_t
    read64(Addr a) const
    {
        if (!inBounds(a, sizeof(std::uint64_t))) {
            ++_oob_reads;
            return 0;
        }
        return _store.read64(a);
    }

    std::uint32_t
    read32(Addr a) const
    {
        std::uint32_t v = 0;
        read(a, &v, sizeof(v));
        return v;
    }

    void
    read(Addr a, void *out, std::size_t size) const
    {
        // The map's end is the exclusive bound; reject reads that start
        // outside it or wrap/run past it. Returning zeros keeps walkers
        // alive (zero is "null pointer / unbacked") while the counter
        // records that the structure pointed outside the machine.
        if (!inBounds(a, size)) {
            std::memset(out, 0, size);
            ++_oob_reads;
            return;
        }
        _store.read(a, out, size);
    }

    const AddrMap &addrMap() const { return _map; }

    /** True if @p a points into the persistent range (sanity checks). */
    bool
    validPersistent(Addr a) const
    {
        return _map.valid(a) && _map.isPersistent(a);
    }

    /** Out-of-range reads absorbed so far (see Workload::checkRecovery). */
    std::uint64_t oobReads() const { return _oob_reads; }

  private:
    bool
    inBounds(Addr a, std::size_t size) const
    {
        return _map.valid(a) && size <= _map.end() - a;
    }

    const BackingStore &_store;
    const AddrMap &_map;
    /** Mutable: checkers take the image const; OOB is a side channel. */
    mutable std::uint64_t _oob_reads = 0;
};

/** Outcome of a workload's recovery consistency check. */
struct RecoveryResult
{
    /** Objects examined while walking from the roots. */
    std::uint64_t checked = 0;
    /** Objects whose integrity check passed. */
    std::uint64_t intact = 0;
    /** Objects reachable from a root but torn/unpersisted. */
    std::uint64_t torn = 0;
    /** Dangling pointers (outside the persistent range / wild). */
    std::uint64_t dangling = 0;
    /** Reads the image rejected as out of the machine's address range. */
    std::uint64_t oob = 0;

    bool
    consistent() const
    {
        return torn == 0 && dangling == 0 && oob == 0;
    }
};

} // namespace bbb

#endif // BBB_PERSIST_RECOVERY_HH
