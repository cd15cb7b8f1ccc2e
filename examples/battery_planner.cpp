/**
 * @file
 * Example: battery provisioning planner under real power traces.
 *
 * The Section IV-C closed-form provisioning (worst-case drain energy →
 * battery volume) answers "how big could the battery ever need to be?".
 * This planner answers the operational question: *how small can it be*
 * before a given workload, persistency mode, and power environment stop
 * surviving outages cleanly?
 *
 * It sweeps power-trace lifetime campaigns (src/recover/lifetime.hh)
 * over traces x battery capacities x degradation policies x workloads x
 * BBB modes. Every outage in a trace becomes a crash round whose drain
 * budget is the charge the battery actually held; a lifetime is *viable*
 * when every round recovered clean with zero sacrificed blocks and the
 * trace never starved the machine of charge. The headline table is the
 * minimum viable capacity per (workload, mode, trace, policy) cell —
 * i.e. what a provisioning engineer would buy.
 *
 * Usage: see kUsage below. `--fast` shrinks every default it does not
 * override to a smoke-sized sweep.
 *
 * Exit status: 0 when no lifetime violates the durability oracle,
 * 1 otherwise (undersized batteries must degrade, never corrupt), 2 on
 * bad usage (src/api/cli.hh).
 */

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "api/cli.hh"
#include "api/report.hh"
#include "energy/energy_model.hh"
#include "recover/lifetime.hh"

using namespace bbb;

namespace
{

const char *const kUsage =
    "usage: battery_planner [--traces T[,T...]] [--battery-caps J[,J...]]\n"
    "                       [--policies P[,P...]] [--workloads W[,W...]]\n"
    "                       [--modes M[,M...]] [--rounds K] "
    "[--lifetimes N]\n"
    "                       [--ops N] [--campaign-seed N] [--jobs N]\n"
    "                       [--fast] [--json PATH]";

/** One sweep cell: every capacity shares the rest of the coordinates. */
struct CellKey
{
    std::string workload;
    PersistMode mode;
    std::string trace;
    DegradePolicy policy;

    bool
    matches(const LifetimeResult &r) const
    {
        return r.workload == workload && r.mode == mode &&
               r.power_env.trace == trace && r.power_env.policy == policy;
    }
};

/** A capacity is viable when every lifetime at it survived cleanly. */
bool
capViable(const std::vector<LifetimeResult> &results, const CellKey &key,
          double cap)
{
    bool any = false;
    for (const LifetimeResult &r : results) {
        if (!key.matches(r) || r.power_env.capacity_j != cap)
            continue;
        any = true;
        if (r.outcome != LifetimeOutcome::Clean || r.power.starved)
            return false;
        for (const LifetimeRound &round : r.round_log) {
            if (round.report.sacrificed_blocks != 0)
                return false;
        }
    }
    return any;
}

/** Report-friendly metric path segment for one cell. */
std::string
cellPath(const CellKey &key)
{
    // Trace tokens may carry ':' parameters; metric paths split on '.'
    // only, so the token passes through unchanged.
    return key.workload + "." + std::string(persistModeName(key.mode)) +
           "." + key.trace + "." + degradePolicyName(key.policy);
}

} // namespace

int
main(int argc, char **argv)
{
    LifetimeSpec spec;
    spec.base = campaignConfig();
    spec.modes = {PersistMode::BbbMemSide, PersistMode::BbbProcSide};
    spec.policies = {DegradePolicy::None, DegradePolicy::DrainOldest};
    spec.lifetimes = 1;
    spec.params.initial_elements = 80;
    spec.campaign_seed = 1;
    // The flags whose defaults --fast shrinks, wherever it appears.
    using Names = std::vector<std::string>;
    using Caps = std::vector<double>;
    bool fast = false;
    std::optional<Names> workloads, traces;
    std::optional<Caps> caps_j;
    std::optional<std::uint64_t> rounds, ops;
    unsigned jobs = 0;
    std::string json;

    cli::Args args(argc, argv, kUsage);
    while (args.next()) {
        if (args.is("--fast")) {
            fast = true;
        } else if (args.is("--workloads")) {
            workloads = args.checkNames(cli::splitList(args.value()),
                                        workloadNameError);
        } else if (args.is("--modes")) {
            spec.modes = args.enumListValue<PersistMode>();
        } else if (args.is("--traces")) {
            // Trace tokens never contain ',' (PowerTrace enforces it),
            // so the comma list composes with parameterized presets.
            traces = args.checkNames(cli::splitList(args.value()),
                                     powerTraceError);
        } else if (args.is("--battery-caps")) {
            caps_j = args.realListValue();
        } else if (args.is("--policies")) {
            spec.policies = args.enumListValue<DegradePolicy>();
        } else if (args.is("--rounds")) {
            rounds = args.unsignedValue(1, UINT32_MAX);
        } else if (args.is("--lifetimes")) {
            spec.lifetimes =
                static_cast<unsigned>(args.unsignedValue(1, UINT32_MAX));
        } else if (args.is("--ops")) {
            ops = args.unsignedValue();
        } else if (args.is("--campaign-seed")) {
            spec.campaign_seed = args.unsignedValue();
        } else if (args.is("--jobs")) {
            jobs = args.jobsValue();
        } else if (args.is("--json")) {
            json = args.value();
        } else {
            args.unknown();
        }
    }
    spec.workloads = workloads.value_or(
        fast ? Names{"hashmap"} : Names{"hashmap", "linkedlist"});
    spec.traces = traces.value_or(
        fast ? Names{"brownout:cycles=2", "square:cycles=2"}
             : Names{"brownout", "square", "outages"});
    spec.battery_caps = caps_j.value_or(
        fast ? Caps{2e-6, 50e-6} : Caps{1e-6, 5e-6, 20e-6, 50e-6});
    spec.rounds = static_cast<unsigned>(rounds.value_or(fast ? 2 : 3));
    spec.params.ops_per_thread = ops.value_or(fast ? 250 : 400);

    // Condensed Section IV-C analytic header: the closed-form worst case
    // the trace sweep below stress-tests from the other side.
    {
        DrainCostModel model(mobilePlatform());
        const unsigned entries = spec.base.bbpb.entries;
        std::printf(
            "analytic worst case (mobile, %u-entry bbPBs): drain %.3f uJ "
            "in %.3f us; eADR needs %.0fx the energy\n",
            entries, model.bbbDrainEnergyJ(entries) * 1e6,
            model.bbbDrainTimeS(entries) * 1e6,
            model.eadrDrainEnergyJ() / model.bbbDrainEnergyJ(entries));
    }

    LifetimeSummary summary;
    double secs =
        timedSeconds([&] { summary = runLifetimeCampaign(spec, jobs); });

    std::printf("\nplanner campaign: %zu lifetimes in %.2f s — %llu "
                "clean, %llu degraded-repaired, %llu oracle-violations\n",
                summary.results.size(), secs,
                (unsigned long long)summary.clean,
                (unsigned long long)summary.degraded,
                (unsigned long long)summary.violations);

    // Min-viable-battery table: smallest swept capacity at which every
    // lifetime of the cell survives every outage with nothing sacrificed.
    BenchReport rep("battery_planner");
    rep.setConfig("battery_caps_j",
                  joinList(spec.battery_caps, compactDouble));
    rep.setConfig("rounds", std::uint64_t{spec.rounds});
    rep.setConfig("lifetimes", std::uint64_t{spec.lifetimes});
    rep.setConfig("ops_per_thread",
                  std::uint64_t{spec.params.ops_per_thread});
    rep.setConfig("campaign_seed", std::uint64_t{spec.campaign_seed});
    rep.setConfig("bbpb_entries", std::uint64_t{spec.base.bbpb.entries});

    std::printf("\n%-12s %-14s %-22s %-13s %s\n", "workload", "mode",
                "trace", "policy", "min viable battery");
    std::uint64_t unviable_cells = 0;
    for (const std::string &w : spec.workloads) {
        for (PersistMode mode : spec.modes) {
            for (const std::string &trace : spec.traces) {
                for (DegradePolicy pol : spec.policies) {
                    CellKey key{w, mode, trace, pol};
                    double viable = -1.0;
                    for (double cap : spec.battery_caps) {
                        if (capViable(summary.results, key, cap)) {
                            viable = cap;
                            break;
                        }
                    }
                    if (viable >= 0.0) {
                        std::printf("%-12s %-14s %-22s %-13s %9.2f uJ\n",
                                    w.c_str(), persistModeName(mode),
                                    trace.c_str(),
                                    degradePolicyName(pol),
                                    viable * 1e6);
                        rep.measured().setReal(
                            "min_viable." + cellPath(key) + ".cap_j",
                            viable);
                    } else {
                        std::printf("%-12s %-14s %-22s %-13s %12s\n",
                                    w.c_str(), persistModeName(mode),
                                    trace.c_str(),
                                    degradePolicyName(pol),
                                    "> sweep max");
                        ++unviable_cells;
                    }
                }
            }
        }
    }
    rep.measured().setCount("min_viable.unviable_cells", unviable_cells);
    rep.measured().merge(summary.metrics, "");
    rep.emitIfRequested(json);

    if (const LifetimeResult *bug = summary.firstViolation()) {
        std::printf("VIOLATION repro: lifetime_campaign %s\n",
                    bug->reproLine().c_str());
        return 1;
    }
    return 0;
}
