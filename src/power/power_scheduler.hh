/**
 * @file
 * PowerScheduler: convert a supply trace + battery into crash windows.
 *
 * The scheduler walks a PowerTrace with a live Battery and carves the
 * power history into *run windows*. Each window is one crash round for a
 * lifetime campaign:
 *
 *  - OFF phase: the machine is down; the battery charges from whatever
 *    supply the trace offers. The machine resumes only once the supply
 *    is above the under-voltage level *and* the charge clears the
 *    power-on threshold (recovery gated on recharge). If the trace ends
 *    first, the campaign is *starved* — no further rounds.
 *  - RUN phase: net battery power is charge_w*supply - activity_w*load,
 *    integrated piecewise. Supply below the breakeven level while the
 *    machine runs is a *brownout*: the battery supplements and
 *    discharges. The window ends at an *outage*: the supply dropping
 *    below the under-voltage level, the battery emptying mid-brownout,
 *    or the trace running out. The charge stored at that instant is the
 *    crash-drain budget.
 *  - On the way down the charge may cross the low-charge warning
 *    threshold first; the scheduler reports the exact crossing and
 *    invokes the warning hook, which is where graceful-degradation
 *    policies act (proactively drain oldest entries — the hook's return
 *    value is the energy that drain spent — throttle the load, or
 *    refuse new dirty blocks).
 *
 * All crossings are solved exactly from the piecewise-constant power
 * (pure double math, no iteration), so the same seed + trace produce the
 * same windows on every host and --jobs width.
 */

#ifndef BBB_POWER_POWER_SCHEDULER_HH
#define BBB_POWER_POWER_SCHEDULER_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "power/battery.hh"
#include "power/power_trace.hh"
#include "sim/types.hh"

namespace bbb
{

/**
 * Graceful-degradation policy applied at the battery's low-charge
 * warning: what the machine does when it learns the crash-drain budget
 * is about to shrink below what the buffered state needs.
 */
enum class DegradePolicy
{
    /** Keep running; accept whatever the drain can save. */
    None,
    /** Proactively drain the oldest buffered entries to NVMM. */
    DrainOldest,
    /** Throttle the machine load so the battery discharges slower. */
    Throttle,
    /** Stop admitting new dirty blocks (coalescing only). */
    RefuseDirty,
};

const char *degradePolicyName(DegradePolicy p);
DegradePolicy parseDegradePolicy(const std::string &name);
std::vector<DegradePolicy> degradePolicyList();

/** Aggregated power-environment statistics for one campaign sample. */
struct PowerStats
{
    std::uint64_t outages = 0;
    /** Outages caused by the battery emptying mid-brownout. */
    std::uint64_t brownout_outages = 0;
    /** Brownout spans ridden through without losing power. */
    std::uint64_t brownouts_survived = 0;
    /** Low-charge warning crossings (graceful-degradation triggers). */
    std::uint64_t warnings = 0;
    /** Blocks proactively drained by the warning policy. */
    std::uint64_t proactive_drain_blocks = 0;
    /** Resumes that had to wait for recharge, and for how long. */
    std::uint64_t resume_waits = 0;
    Tick resume_wait_ticks = 0;
    /** Trace ended while waiting for recharge: no further rounds. */
    bool starved = false;

    /** Gross energy flows (J), by cause. */
    double energy_harvested_j = 0.0;
    double energy_activity_j = 0.0;
    double energy_drain_j = 0.0;

    /**
     * Minimum observed headroom (J): charge at outage minus drain spend.
     * Negative when a drain exhausted the battery (the shortfall is the
     * energy the sacrificed blocks would have needed).
     */
    double min_headroom_j = std::numeric_limits<double>::infinity();

    void merge(const PowerStats &o);
};

/** One run window: boot/resume through the outage that ends it. */
struct PowerWindow
{
    /** Absolute trace tick the machine (re)started. */
    Tick start = 0;
    /** Absolute trace tick of the outage ending the window. */
    Tick outage = 0;
    /** Charge stored at the outage: the crash-drain budget (J). */
    double charge_at_outage = 0.0;
    /** The battery emptied mid-brownout (budget is zero). */
    bool brownout_outage = false;

    /** Low-charge warning fired during this window. */
    bool has_warning = false;
    /** Absolute trace tick of the warning crossing. */
    Tick warning = 0;
    double charge_at_warning = 0.0;

    /** Brownouts survived within this window. */
    std::uint64_t brownouts_survived = 0;

    /** Window run length in ticks (the round's crash tick). */
    Tick runTicks() const { return outage - start; }
    /** Warning offset from window start. */
    Tick warningOffset() const { return warning - start; }
};

class PowerScheduler
{
  public:
    /**
     * Called at the low-charge warning crossing with the absolute trace
     * tick and the charge at that instant; returns the energy (J) the
     * policy's proactive action spent, debited before the run continues.
     */
    using WarningHook = std::function<double(Tick tick, double charge_j)>;

    PowerScheduler(const PowerTrace &trace, const BatterySpec &spec);

    /** Load after a warning fired, as a fraction of activity_w
     *  (throttle policy; default 1.0, the normal load). */
    void setPostWarningLoad(double load) { _post_warning_load = load; }
    void setWarningHook(WarningHook hook) { _hook = std::move(hook); }

    /**
     * Advance to the next run window: charge through the OFF phase,
     * then run until the next outage. @return false when the trace is
     * exhausted before the machine can power back on (check
     * stats().starved to distinguish starvation from a clean end).
     */
    bool nextWindow(PowerWindow *w);

    /**
     * Debit the crash drain that ended the last window: @p spent_j
     * Joules were drawn; @p exhausted when the budget ran out, with
     * @p shortfall_j the energy the sacrificed blocks still needed.
     * Updates min_headroom_j.
     */
    void noteCrashSpend(double spent_j, bool exhausted, double shortfall_j);

    /** Live charge (J), e.g. for reporting between windows. */
    double chargeJ() const { return _battery.energy_stored(); }
    const Battery &battery() const { return _battery; }

    const PowerStats &stats() const { return _stats; }
    PowerStats &stats() { return _stats; }

  private:
    /** Supply level and end of the piecewise-constant piece at @p t. */
    void pieceAt(Tick t, double *level, Tick *end) const;

    /** Charge with the machine off until it can power back on. */
    bool chargeUntilPowerOn(Tick *start);

    PowerTrace _trace;
    Battery _battery;
    double _load = 1.0; ///< machine load while running normally
    double _post_warning_load = 1.0;
    WarningHook _hook;

    Tick _now = 0;
    bool _booted_once = false;
    PowerStats _stats;
};

} // namespace bbb

#endif // BBB_POWER_POWER_SCHEDULER_HH
