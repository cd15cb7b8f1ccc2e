/**
 * @file
 * bbb::System — the one-stop public API of the library.
 *
 * A System wires together the full simulated machine of the paper's
 * methodology (Table III): cores with store buffers, private L1Ds, a
 * shared inclusive LLC with directory MESI, DRAM and NVMM controllers
 * (the NVMM one with an ADR write-pending queue), the persistency backend
 * selected by SystemConfig::mode (bbPBs for BBB), a persistent heap, and
 * the crash engine.
 *
 * Typical use:
 * @code
 *   SystemConfig cfg;
 *   cfg.mode = PersistMode::BbbMemSide;
 *   System sys(cfg);
 *   sys.onThread(0, [&](ThreadContext &tc) { ... tc.store64(...); ... });
 *   sys.run();                       // or sys.runAndCrashAt(tick)
 *   auto writes = sys.nvmmWrites();
 * @endcode
 */

#ifndef BBB_API_SYSTEM_HH
#define BBB_API_SYSTEM_HH

#include <memory>
#include <vector>

#include "cache/hierarchy.hh"
#include "core/bbpb.hh"
#include "core/crash_engine.hh"
#include "core/persist_backend.hh"
#include "cpu/core.hh"
#include "fault/fault_injector.hh"
#include "fault/fault_plan.hh"
#include "mem/addr_map.hh"
#include "mem/backing_store.hh"
#include "mem/mem_ctrl.hh"
#include "persist/palloc.hh"
#include "persist/recovery.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace bbb
{

/** A complete simulated machine. */
class System
{
  public:
    explicit System(const SystemConfig &cfg);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    // --- configuration & components -----------------------------------
    const SystemConfig &config() const { return _cfg; }
    const AddrMap &addrMap() const { return _map; }
    EventQueue &eventQueue() { return _eq; }
    StatRegistry &stats() { return _stats; }
    CacheHierarchy &hierarchy() { return *_hier; }
    MemCtrl &nvmm() { return *_nvmm; }
    MemCtrl &dram() { return *_dram; }

    /** The NVMM media backend (DirectMedia or FtlMedia per cfg.media). */
    MediaBackend &nvmmMedia() { return *_nvmm_media; }
    const MediaBackend &nvmmMedia() const { return *_nvmm_media; }
    PersistentHeap &heap() { return *_heap; }
    BackingStore &image() { return _store; }
    PersistencyBackend &backend() { return *_backend; }
    Core &core(CoreId c) { return *_cores.at(c); }
    unsigned numCores() const { return _cfg.num_cores; }

    /** The bbPB (memory- or processor-side), or nullptr if the mode
     *  has none. */
    Bbpb *bbpb() { return dynamic_cast<Bbpb *>(_backend); }

    // --- fault injection -----------------------------------------------
    /**
     * Arm a fault plan: imperfect crash battery, failing media writes,
     * and/or a mid-drain re-crash. Must be called before run(); a plan
     * with nothing enabled detaches injection entirely, reproducing the
     * fault-free machine bit for bit.
     */
    void setFaultPlan(const FaultPlan &plan);

    /** The armed injector, or nullptr when no faults are armed. */
    FaultInjector *faultInjector() { return _faults.get(); }
    const FaultInjector *faultInjector() const { return _faults.get(); }

    // --- workload binding ----------------------------------------------
    /** Bind a software thread to core @p c (one thread per core). */
    void onThread(CoreId c, Core::ThreadBody body);

    // --- crash-recover-resume ------------------------------------------
    /**
     * Replace this (not-yet-run) machine's media image with @p src: the
     * reboot of a crash-recover-resume lifetime. The caller typically
     * passes a recovered post-crash image from a previous System, then
     * restores the heap frontiers (PersistentHeap::setFrontier) before
     * rebinding threads and running.
     */
    void seedImage(const BackingStore &src);

    // --- execution -------------------------------------------------------
    /**
     * Run every bound thread to completion (plus trailing buffer drains).
     * @return the tick at which the last thread finished.
     */
    Tick run(Tick max_tick = kMaxTick);

    /**
     * Install @p gate on every core (see sim/op_gate.hh), switch the
     * store buffers to manual drain, and start the cores without
     * entering the free-running loop of run(): the caller (the litmus
     * schedule runner) then owns op release order and store-retirement
     * order, and steps eventQueue() itself.
     */
    void startGated(OpGate &gate);

    /**
     * Run (or resume) the machine until tick @p until without crashing.
     * Core starts are idempotent, so repeated calls advance
     * the same execution — power-trace campaigns use this to stop at the
     * low-charge warning, apply a degradation policy, and continue to
     * the outage.
     */
    void runUntil(Tick until);

    /**
     * Run until @p crash_tick, then fail power: halts the cores, applies
     * the mode's flush-on-fail drain, and returns the cost report. The
     * post-crash image is available through image()/pmemImage().
     */
    CrashReport runAndCrashAt(Tick crash_tick);

    /** Crash immediately at the current tick (after a run()). */
    CrashReport crashNow();

    /**
     * Low-battery graceful degradation: proactively drain up to
     * @p max_blocks oldest persist-buffer entries through the powered
     * write path (no-op for bufferless modes). Returns blocks drained.
     */
    std::uint64_t proactiveDrain(std::uint64_t max_blocks = ~0ull);

    /**
     * Low-power admission control: while set, the persistency backend
     * refuses new dirty blocks (coalescing only) — the refuse-dirty
     * degradation policy.
     */
    void setLowPower(bool on);

    // --- results ----------------------------------------------------------
    /** Last thread's finish tick from the most recent run(). */
    Tick executionTime() const { return _exec_time; }

    /** NVMM media block writes so far. */
    std::uint64_t nvmmWrites() const { return _nvmm->mediaWrites(); }

    /**
     * Flush-fair NVMM write count: media writes performed plus the writes
     * the remaining buffered/dirty state will eventually cost (pending
     * WPQ entries; bbPB entries for BBB; dirty NVMM cache blocks for the
     * cache-resident schemes). Without this correction a scheme that
     * merely postpones its writes past the end of the measurement window
     * would look artificially write-efficient.
     *
     * After a crash the drain already committed (and counted) everything
     * the persistence domain held, so the count is exactly the media
     * writes; eADR's still-dirty cache lines must not count twice.
     */
    std::uint64_t
    effectiveNvmmWrites() const
    {
        if (_crashed)
            return _nvmm->mediaWrites();
        std::uint64_t n = _nvmm->mediaWrites() + _nvmm->wpqOccupancy();
        if (_cfg.usesBbpb())
            n += _backend->occupancy();
        else
            n += _hier->countDirtyNvmm();
        return n;
    }

    /**
     * Capture the machine's full metric tree: every registry-registered
     * stat (caches, controllers, media, store buffers, bbPBs, crash
     * engine) plus derived `system.*` results (exec time, NVMM
     * write counts) and instantaneous `hierarchy.*_dirty_blocks`
     * watermarks. Deterministic: byte-stable JSON via
     * MetricSnapshot::toJson().
     */
    MetricSnapshot snapshotMetrics(bool histogram_buckets = false) const;

    /** Read-only view of the (post-crash) persistent image. */
    PmemImage pmemImage() const { return PmemImage(_store, _map); }

    /** Architectural read helper (coherent, pre-crash). */
    std::uint64_t
    peek64(Addr a)
    {
        std::uint64_t v = 0;
        _hier->peek(a, 8, &v);
        return v;
    }

    /** Run the hierarchy/backend invariant validator (tests). */
    void checkInvariants() { _hier->checkInvariants(); }

  private:
    bool allThreadsFinished() const;

    /** Sampled invariant checking (SystemConfig::check_invariants). */
    void scheduleInvariantCheck();

    /** Registry-registered simulator-work counts (the `sim` group). */
    struct SimStats
    {
        StatCounter ops;            ///< memory operations simulated
        StatCounter events_fired;   ///< events executed by the queue
        StatCounter events_inlined; ///< events_fired that fired in place
    };

    SystemConfig _cfg;
    AddrMap _map;
    EventQueue _eq;
    StatRegistry _stats;
    BackingStore _store;
    /// Media backends outlive (and are declared before) their
    /// controllers, which are their only writers.
    std::unique_ptr<MediaBackend> _dram_media;
    std::unique_ptr<MediaBackend> _nvmm_media;
    std::unique_ptr<MemCtrl> _dram;
    std::unique_ptr<MemCtrl> _nvmm;
    std::unique_ptr<CacheHierarchy> _hier;
    std::unique_ptr<PersistencyBackend> _backend_owned;
    PersistencyBackend *_backend = nullptr;
    std::vector<std::unique_ptr<Core>> _cores;
    std::unique_ptr<PersistentHeap> _heap;
    std::unique_ptr<CrashEngine> _crash;
    std::unique_ptr<FaultInjector> _faults;
    /// Mutable: refreshed from the live components inside the const
    /// snapshotMetrics() immediately before the registry walk.
    mutable SimStats _sim;
    Tick _exec_time = 0;
    bool _crashed = false;
    bool _invariants_scheduled = false;
};

} // namespace bbb

#endif // BBB_API_SYSTEM_HH
