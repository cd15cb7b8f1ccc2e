/**
 * @file
 * The simulator side of the litmus harness: run one lowered litmus
 * program through a full bbb::System under an exact schedule.
 *
 * The driver owns op release order *and* store-retirement order via the
 * OpGate / manual-drain hooks (sim/op_gate.hh), so one schedule maps to
 * exactly one machine execution. After the prefix
 * runs, the machine is crashed and the post-crash NVMM image captured,
 * making every prefix a crash point.
 */

#ifndef BBB_LITMUS_SIM_DRIVER_HH
#define BBB_LITMUS_SIM_DRIVER_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/crash_engine.hh"
#include "fault/fault_plan.hh"
#include "litmus/model.hh"
#include "mem/addr_map.hh"
#include "sim/config.hh"

namespace bbb
{
namespace litmus
{

/**
 * The machine the corpus runs on: 4 cores (one per litmus thread),
 * small caches (litmus programs touch <= 8 blocks), manual drains
 * (threshold 1.0 keeps the auto drain engine quiet for <= 8 buffered
 * stores), TSO, and crash-time invariant checking.
 */
SystemConfig litmusConfig(Mode mode);

/** Block address of litmus variable @p var: consecutive blocks past the
 *  persistent heap header (which holds the heap magic). */
Addr litmusVarAddr(const AddrMap &map, int var);

/** Outcome of one schedule prefix on the simulator. */
struct SimResult
{
    /** False on a lockstep divergence (schedule could not be driven);
     *  `error` then says why. All other fields are best-effort. */
    bool ok = true;
    std::string error;

    /** Register file after the prefix (loads that completed). */
    std::array<std::uint64_t, kMaxRegs> regs{};
    std::array<bool, kMaxRegs> reg_done{};

    /** True iff the schedule was complete: every thread finished and
     *  every store buffer drained. */
    bool completed = false;
    /** Coherent (pre-crash) value of each variable; valid only when
     *  completed. */
    std::array<std::uint64_t, kMaxVars> final_mem{};

    /** Post-crash NVMM image of each variable. */
    std::array<std::uint64_t, kMaxVars> image{};
    /** The crash drain's cost/fault report. */
    CrashReport crash;
};

/**
 * Execute @p steps of @p prog (the @p mode lowering of @p test) on a
 * fresh system, then crash and capture the image. @p faults optionally
 * arms a fault plan (battery sweeps).
 */
SimResult runSchedule(const Test &test, const Program &prog, Mode mode,
                      const std::vector<Step> &steps,
                      const FaultPlan *faults = nullptr);

} // namespace litmus
} // namespace bbb

#endif // BBB_LITMUS_SIM_DRIVER_HH
