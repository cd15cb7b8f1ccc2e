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
 */

#ifndef BBB_CPU_STORE_BUFFER_HH
#define BBB_CPU_STORE_BUFFER_HH

#include <cstdint>
#include <deque>
#include <functional>

#include "cache/hierarchy.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
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

/** The store buffer and its drain engine. */
class StoreBuffer
{
  public:
    StoreBuffer(CoreId core, const SystemConfig &cfg, EventQueue &eq,
                CacheHierarchy &hier, StatRegistry &stats);

    /** Observer invoked whenever an entry retires (slot freed). */
    void setOnChange(std::function<void()> cb) { _on_change = std::move(cb); }

    bool full() const { return _entries.size() >= _cfg.store_buffer.entries; }
    bool empty() const { return _entries.empty(); }
    std::size_t size() const { return _entries.size(); }

    /** Commit a store into the buffer (caller checked !full()). */
    void push(Addr addr, unsigned size, std::uint64_t data, bool persisting);

    /**
     * Forward data to a load: if [addr, addr+size) is fully covered by the
     * youngest matching entry, set @p out and return true.
     */
    bool forward(Addr addr, unsigned size, std::uint64_t &out) const;

    /** True if any buffered entry touches @p block. */
    bool hasBlock(Addr block) const;

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

    /** Program-order snapshot of buffered persisting stores (crash). */
    std::deque<SbEntry> drainForCrash();

    std::uint64_t rejections() const { return _rejections.value(); }
    std::uint64_t retryPolls() const { return _retry_polls.value(); }

  private:
    /** Kick the drain engine if idle and work exists. */
    void maybeScheduleDrain(Tick delay);

    /** Attempt to retire one entry to the L1D. */
    void drainStep();

    CoreId _core;
    SystemConfig _cfg;
    EventQueue &_eq;
    CacheHierarchy &_hier;
    std::deque<SbEntry> _entries;
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

    StatCounter _pushes;
    mutable StatCounter _forwards;
    StatCounter _retired;
    StatCounter _rejections;
    StatCounter _retry_polls;
    StatCounter _ooo_retires;
};

} // namespace bbb

#endif // BBB_CPU_STORE_BUFFER_HH
