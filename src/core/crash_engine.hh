/**
 * @file
 * Flush-on-fail crash engine.
 *
 * On a simulated power failure, the persistence domain drains to NVMM.
 * What the domain contains depends on the persistency mode:
 *
 *   - ADR (PMEM / unsafe): only the NVMM controller's WPQ.
 *   - eADR:                WPQ + every dirty NVMM block in the caches
 *                          (+ battery-backed store buffers, Section III-C).
 *   - BBB (either side):   WPQ + the bbPB contents
 *                          (+ battery-backed store buffers under relaxed
 *                          consistency).
 *
 * The engine never touches media itself: it hands every drained block
 * and store-buffer patch to the NVMM controller, the only writer of
 * media (producing the image recovery code sees — the controller's
 * crashMount() replays any remap table into the logical image
 * afterwards). It reports the energy/time cost of the drain using the
 * Table VI model, which is how the paper's Tables VII/VIII compare eADR
 * and BBB.
 *
 * With a FaultInjector attached the drain stops being infallible:
 *
 *   - every drained byte charges the injector's Joule budget at the
 *     Table VI rate of its source (WPQ at the L2/L3 rate, bbPB/L1/SB at
 *     the L1 rate); once the budget runs out every remaining -- younger
 *     -- item is sacrificed, so the survivors always form an oldest-first
 *     prefix of the persist order (checked and reported as
 *     drain_prefix_ok);
 *   - each drained block's media write may fail per the plan, retrying
 *     and finally tearing the block (the controller's write attempt);
 *   - after recrash_after_blocks drained items, power "fails again":
 *     the residual budget is scaled by recrash_budget_factor and the
 *     remaining drain continues under the shrunken reserve (draining is
 *     idempotent, so re-entering the drain with the residual budget is
 *     exactly the continuation).
 *
 * Sacrificed and torn blocks land in the injector's fault ledger with
 * the content a fault-free drain would have persisted, which is what the
 * lifetime campaign's recovery oracle replays (see recover/lifetime.hh).
 */

#ifndef BBB_CORE_CRASH_ENGINE_HH
#define BBB_CORE_CRASH_ENGINE_HH

#include <cstdint>
#include <vector>

#include "cache/hierarchy.hh"
#include "core/persist_backend.hh"
#include "cpu/core.hh"
#include "energy/energy_model.hh"
#include "mem/backing_store.hh"
#include "mem/mem_ctrl.hh"
#include "sim/config.hh"
#include "sim/stats.hh"

namespace bbb
{

/** What drained and what it cost. */
struct CrashReport
{
    Tick crash_tick = 0;
    PersistMode mode = PersistMode::AdrUnsafe;

    std::uint64_t wpq_blocks = 0;
    std::uint64_t bbpb_blocks = 0;
    std::uint64_t cache_blocks_l1 = 0;
    std::uint64_t cache_blocks_llc = 0;
    std::uint64_t sb_entries = 0;

    /** Bytes drained (excluding the always-battery-backed WPQ). */
    std::uint64_t drained_bytes = 0;
    /** Energy of the drain per the Table VI constants (J). */
    double drain_energy_j = 0.0;
    /** Time to push the drained bytes through NVMM bandwidth (s). */
    double drain_time_s = 0.0;

    /** --- Fault injection (all zero on a fault-free crash) ----------- */

    /** Persistence-domain items lost to an exhausted battery. */
    std::uint64_t sacrificed_blocks = 0;
    /** Drained blocks torn by terminal media write failures. */
    std::uint64_t torn_media_blocks = 0;
    /** Media write retries during the drain. */
    std::uint64_t media_retries = 0;
    /** Mid-drain re-crashes taken. */
    std::uint64_t recrashes = 0;
    /** The battery ran out before the domain finished draining. */
    bool battery_exhausted = false;
    /**
     * Oldest-first prefix oracle: true iff no item drained after the
     * first sacrificed item. Must hold by construction; a false here is
     * a crash-engine bug, not an injected fault.
     */
    bool drain_prefix_ok = true;
    /** Energy drawn from the battery (J), including the WPQ bytes. */
    double battery_spent_j = 0.0;
};

/**
 * Registry-registered crash-drain statistics (group "crash"). The same
 * numbers as CrashReport, but accumulated across crashes and captured by
 * MetricSnapshot like every other component's stats. Energy/time land as
 * averages so snapshots expand them to delta-able `.sum`/`.count` pairs.
 */
struct CrashStats
{
    StatCounter crashes;                ///< power failures taken
    StatCounter wpq_blocks;             ///< WPQ blocks drained
    StatCounter bbpb_blocks;            ///< bbPB blocks drained
    StatCounter cache_blocks_l1;        ///< dirty L1 blocks drained (eADR)
    StatCounter cache_blocks_llc;       ///< dirty LLC blocks drained (eADR)
    StatCounter sb_entries;             ///< battery-backed SB entries drained
    StatCounter drained_bytes;          ///< bytes drained, WPQ excluded
    StatCounter sacrificed_blocks;      ///< items lost to a dead battery
    StatCounter torn_media_blocks;      ///< drained blocks torn by media
    StatCounter media_retries;          ///< media retries during the drain
    StatCounter recrashes;              ///< mid-drain re-crashes taken
    StatCounter battery_exhausted;      ///< battery ran out mid-drain
    StatCounter prefix_violations;      ///< oldest-first prefix broken
    StatCounter proactive_drains;       ///< low-battery backup invocations
    StatCounter proactive_drain_blocks; ///< blocks those backups drained
    StatAverage drain_energy_j;         ///< per crash (J, Table VI model)
    StatAverage drain_time_s;           ///< per crash (s)
    StatAverage battery_spent_j;        ///< per crash (J, WPQ included)

    void registerWith(StatGroup &g);
    void note(const CrashReport &rep);
};

/** Executes the flush-on-fail policy for the configured mode. */
class CrashEngine
{
  public:
    CrashEngine(const SystemConfig &cfg, CacheHierarchy &hier,
                MemCtrl &nvmm, PersistencyBackend &backend,
                std::vector<std::unique_ptr<Core>> &cores,
                StatRegistry &stats)
        : _cfg(cfg), _hier(hier), _nvmm(nvmm), _backend(backend),
          _cores(cores)
    {
        _stats.registerWith(stats.group("crash"));
    }

    /**
     * Power fails now: halt the cores, drain the persistence domain to
     * media through the NVMM controller, and report the cost.
     */
    CrashReport crash(Tick now);

    /**
     * Low-battery graceful degradation: drain up to @p max_blocks of the
     * oldest buffered entries through the powered path (see
     * PersistencyBackend::forceDrainOldest). Returns blocks drained.
     */
    std::uint64_t proactiveDrain(std::uint64_t max_blocks);

    /** Inject faults into the drain (nullptr = infallible drain). */
    void setFaultInjector(FaultInjector *faults) { _faults = faults; }

  private:
    const SystemConfig &_cfg;
    CacheHierarchy &_hier;
    MemCtrl &_nvmm;
    PersistencyBackend &_backend;
    std::vector<std::unique_ptr<Core>> &_cores;
    FaultInjector *_faults = nullptr;
    CrashStats _stats;
};

} // namespace bbb

#endif // BBB_CORE_CRASH_ENGINE_HH
