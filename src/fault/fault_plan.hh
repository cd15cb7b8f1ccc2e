/**
 * @file
 * Fault plans: which failures a run injects, and when.
 *
 * The paper's guarantee (Sections III-C/III-D) holds for a correctly
 * sized battery and perfectly reliable NVMM media. A FaultPlan describes
 * the degraded regimes outside that envelope so crash sweeps become
 * adversarial campaigns:
 *
 *   (a) battery budget exhaustion — the flush-on-fail drain consumes a
 *       Joule budget per drained byte (Table VI rates) and stops
 *       mid-drain when the budget runs out;
 *   (b) NVMM media write failures — every media write fails with a
 *       configured probability, retries a bounded number of times with
 *       exponential backoff (latency-charged), and on terminal failure
 *       leaves a torn 64 B block (a partial write) in the image;
 *   (c) crash-during-drain re-crash — after a configured number of
 *       drained blocks the drain is interrupted and re-entered with a
 *       reduced residual budget.
 *
 * A plan is a value type that serialises to one flag-friendly token
 * (`FaultPlan::toString` / `FaultPlan::parse`), so any campaign outcome
 * can be reproduced from a single command line (crash ticks re-derive
 * from the lifetime seed; see recover/lifetime.hh):
 *   --workload W --mode M --seed S --rounds 1
 *   --fault-plan battery_j=5e-6,media_p=0.01
 */

#ifndef BBB_FAULT_FAULT_PLAN_HH
#define BBB_FAULT_FAULT_PLAN_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/config.hh"

namespace bbb
{

/** Declarative description of the faults one run injects. */
struct FaultPlan
{
    /** Seed of the fault RNG stream (independent of the workload seed). */
    std::uint64_t fault_seed = 1;

    /**
     * Crash-drain battery budget in Joules; negative means a correctly
     * sized battery (the infallible drain the paper assumes). A
     * power-trace lifetime replaces it with the charge its battery
     * holds at each outage (see recover/lifetime.hh).
     */
    double battery_j = -1.0;

    /** Per-attempt NVMM media write failure probability. */
    double media_fail_p = 0.0;

    /** Bounded retries after a failed media write attempt. */
    unsigned media_retries = 3;

    /**
     * Backoff before the first retry, doubling per subsequent attempt
     * (charged as media latency on the timing path).
     */
    Tick media_backoff = nsToTicks(100);

    /**
     * Re-crash during the crash drain after this many drained blocks
     * (0 disables). The drain re-enters with the residual budget scaled
     * by @ref recrash_budget_factor.
     */
    std::uint64_t recrash_after_blocks = 0;

    /** Residual budget multiplier applied at the re-crash. */
    double recrash_budget_factor = 0.5;

    /**
     * NVMM media backend the run simulates (unset: leave the
     * SystemConfig default). Rides in the plan token (`media=ftl`) so an
     * endurance campaign's repro line selects the same backend.
     */
    std::optional<MediaKind> media;

    /** True if any fault channel is active. */
    bool
    enabled() const
    {
        return battery_j >= 0.0 || media_fail_p > 0.0 ||
               recrash_after_blocks > 0;
    }

    /** True if the plan can tear media blocks at runtime or crash time. */
    bool
    injectsMediaFaults() const
    {
        return media_fail_p > 0.0;
    }

    /**
     * One-token serialisation: comma-separated key=value pairs with
     * default-valued fields omitted ("none" when nothing is injected).
     * Round-trips exactly through parse().
     */
    std::string toString() const;

    /**
     * Parse a plan token produced by toString() (or hand-written in the
     * same key=value form). Also accepts the preset names from
     * faultPlanPresets(). fatal()s on malformed input; drivers check
     * tokens with faultPlanError() first.
     */
    static FaultPlan parse(const std::string &token);

    bool operator==(const FaultPlan &) const = default;
};

/** Why FaultPlan::parse() rejects @p token, or "" if it parses. */
std::string faultPlanError(const std::string &token);

/** A named fault plan, for campaign sweeps and CLI presets. */
struct NamedFaultPlan
{
    std::string name;
    FaultPlan plan;
};

/**
 * The built-in plan family campaigns sweep by default: no faults, flaky
 * media, an exhausted battery, and a mid-drain re-crash. Battery budgets
 * are fixed Joule figures; undersizedBatteryPlan() sizes one against a
 * given machine instead.
 */
std::vector<NamedFaultPlan> faultPlanPresets();

/**
 * A battery deliberately too small for the machine: @p fraction of the
 * Section III-C worst-case crash budget (full bbPBs + full WPQ). Use
 * with fraction < 1 to force sacrifices and demonstrate the
 * oldest-first prefix property.
 */
FaultPlan undersizedBatteryPlan(const SystemConfig &cfg, double fraction,
                                std::uint64_t fault_seed = 1);

/** Shortest decimal form of @p v that round-trips through strtod. */
std::string compactDouble(double v);

} // namespace bbb

#endif // BBB_FAULT_FAULT_PLAN_HH
