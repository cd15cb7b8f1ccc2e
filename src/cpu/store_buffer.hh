/**
 * @file
 * Per-core store buffer.
 *
 * Committed stores sit here until written to the L1D. Under BBB with a
 * relaxed consistency model the store buffer is battery-backed and becomes
 * the point of persistency (Section III-C); at crash time its contents are
 * drained to NVMM in program order, after the bbPB.
 *
 * The drain engine retires entries to the cache hierarchy FIFO by default
 * (TSO-like). With out-of-order drain enabled (modelling a relaxed core),
 * a blocked head does not stop younger drainable stores — the scenario
 * that motivates battery-backing the store buffer.
 *
 * Entries live in a fixed SlotFifo (sim/slot_fifo.hh) in program order.
 * A BlockTable (sim/block_table.hh) maps each buffered block to its
 * newest entry, and every entry links to the next-older and next-younger
 * entry of its block. A load or flush therefore probes the table once
 * and walks only its own block's entries; retiring an entry from
 * anywhere in the buffer is O(1).
 */

#ifndef BBB_CPU_STORE_BUFFER_HH
#define BBB_CPU_STORE_BUFFER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "cache/hierarchy.hh"
#include "sim/block_table.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/slot_fifo.hh"
#include "sim/stats.hh"

namespace bbb
{

/** One committed store awaiting its L1D write. */
struct SbEntry
{
    Addr addr;
    unsigned size;
    std::uint64_t data;
    bool persisting;
    /** Rejection already counted for this entry (count stalls once). */
    bool rejection_counted = false;
};

/** What the buffer holds for a load (StoreBuffer::probe). */
enum class SbProbe
{
    Miss,    ///< no buffered store touches the block: go to the cache
    Hit,     ///< a buffered store covers the load: forwarded
    Blocked, ///< the block is buffered but nothing covers the load: wait
};

/** The store buffer and its drain engine. */
class StoreBuffer
{
  public:
    StoreBuffer(CoreId core, const SystemConfig &cfg, EventQueue &eq,
                CacheHierarchy &hier, StatRegistry &stats);

    /** Observer invoked whenever an entry retires (slot freed). */
    void setOnChange(std::function<void()> cb) { _on_change = std::move(cb); }

    bool full() const { return _entries.full(); }
    bool empty() const { return _entries.size() == 0; }
    std::size_t size() const { return _entries.size(); }

    /** Commit a store into the buffer (caller checked !full()). */
    void push(Addr addr, unsigned size, std::uint64_t data, bool persisting);

    /**
     * Look a load of [addr, addr+size) up in one block-index probe. The
     * block's entries are walked youngest first; the first that
     * overlaps the load decides: if it covers the load it forwards its
     * bytes into @p out (Hit), else the load is Blocked (no byte
     * merging). A buffered block with no overlapping entry is Blocked
     * too; an unbuffered one is a Miss.
     */
    SbProbe probe(Addr addr, unsigned size, std::uint64_t &out) const;

    /** probe() == Hit. */
    bool
    forward(Addr addr, unsigned size, std::uint64_t &out) const
    {
        return probe(addr, size, out) == SbProbe::Hit;
    }

    /** True if any buffered entry touches @p block. */
    bool
    hasBlock(Addr block) const
    {
        return _newest.find(blockAlign(block)) != nullptr;
    }

    /** Allow younger drainable stores to bypass a blocked head. */
    void setOutOfOrderDrain(bool ooo) { _ooo_drain = ooo; }

    /**
     * Manual drain mode (litmus schedule control): the periodic drain
     * engine stays idle and entries retire only through retireOne(), so
     * the schedule runner decides exactly when each buffered store
     * becomes visible to the coherence fabric.
     */
    void setManualDrain(bool manual) { _manual_drain = manual; }

    /**
     * Synchronously retire the oldest entry to the L1D (manual drain
     * mode). Returns false on an empty buffer. The write must be
     * accepted — litmus configurations size the bbPB so a manual drain
     * can never see a RetryPersist.
     */
    bool retireOne();

    /** Call @p fn(entry) for each buffered store, oldest first. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::uint32_t s = _entries.head(); s != kNil;
             s = _entries.next(s))
            fn(_entries[s].e);
    }

    /** Empty the buffer, returning its persisting stores in program
     *  order (crash). */
    std::vector<SbEntry> drainForCrash();

    std::uint64_t rejections() const { return _rejections.value(); }
    std::uint64_t retryPolls() const { return _retry_polls.value(); }

  private:
    /** A buffered store and its links in its block's chain. */
    struct Slot
    {
        SbEntry e;
        std::uint32_t older;   ///< next-older entry of the block, or kNil
        std::uint32_t younger; ///< next-younger entry of the block, or kNil
    };

    static constexpr std::uint32_t kNil = SlotFifo<Slot>::kNil;

    /** Retire @p slot from the buffer, wherever it sits. */
    void remove(std::uint32_t slot);

    /** Write @p slot's store to the L1D (may be rejected). */
    AccessResult storeToL1(std::uint32_t slot);

    /** Kick the drain engine if idle and work exists. */
    void maybeScheduleDrain(Tick delay);

    /** Attempt to retire one entry to the L1D. */
    void drainStep();

    CoreId _core;
    SystemConfig _cfg;
    EventQueue &_eq;
    CacheHierarchy &_hier;
    /** Entries in program order (head = oldest). */
    SlotFifo<Slot> _entries;
    /** Buffered block -> slot of its newest entry. */
    BlockTable<std::uint32_t> _newest;
    bool _drain_active = false;
    /**
     * The L1D write port is busy until this tick: a drain's latency
     * throttles the next drain even across empty periods, so store cost
     * is billed regardless of buffer depth.
     */
    Tick _port_free = 0;
    bool _ooo_drain = false;
    bool _manual_drain = false;
    /** The seeded "drain-youngest" litmus mutation (read once). */
    const bool _drain_youngest;
    std::function<void()> _on_change;

    StatCounter _pushes;             ///< stores committed into the buffer
    mutable StatCounter _forwards;   ///< loads satisfied by forwarding
    StatCounter _retired;            ///< stores written to the L1D
    StatCounter _rejections;         ///< stalled by a full bbPB, once each
    StatCounter _retry_polls;        ///< individual bbPB retry attempts
    StatCounter _ooo_retires;        ///< retired past a blocked older store
};

} // namespace bbb

#endif // BBB_CPU_STORE_BUFFER_HH
