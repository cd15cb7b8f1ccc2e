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
 * Usage:
 *   battery_planner [--traces T[,T...]] [--battery-caps J[,J...]]
 *                   [--policies P[,P...]] [--workloads W[,W...]]
 *                   [--modes M[,M...]] [--rounds K] [--lifetimes N]
 *                   [--ops N] [--campaign-seed N] [--jobs N]
 *                   [--fast] [--strict-args] [--json PATH]
 *
 * Exit status: 0 when no lifetime violates the durability oracle,
 * 1 otherwise (undersized batteries must degrade, never corrupt).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "api/cli.hh"
#include "api/report.hh"
#include "energy/energy_model.hh"
#include "recover/lifetime.hh"

using namespace bbb;

namespace
{

/** Small machine so trace windows land mid-run (same as the campaigns). */
SystemConfig
plannerCfg()
{
    SystemConfig cfg;
    cfg.num_cores = 2;
    cfg.l1d.size_bytes = 4_KiB;
    cfg.llc.size_bytes = 16_KiB;
    cfg.dram.size_bytes = 64_MiB;
    cfg.nvmm.size_bytes = 64_MiB;
    cfg.bbpb.entries = 8;
    cfg.l1d.repl = ReplPolicy::Random;
    cfg.llc.repl = ReplPolicy::Random;
    return cfg;
}

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
    const bool fast = cli::fastMode(argc, argv);

    LifetimeSpec spec;
    spec.base = plannerCfg();
    spec.workloads =
        cli::splitList(cli::stringOpt(argc, argv, "--workloads",
                                      fast ? "hashmap"
                                           : "hashmap,linkedlist"));
    spec.modes = {PersistMode::BbbMemSide, PersistMode::BbbProcSide};
    std::string modes_arg = cli::stringOpt(argc, argv, "--modes");
    if (!modes_arg.empty()) {
        spec.modes.clear();
        for (const std::string &m : cli::splitList(modes_arg))
            spec.modes.push_back(persistModeFromName(m));
    }
    // Trace tokens never contain ',' (PowerTrace enforces it), so the
    // standard comma list composes cleanly with parameterized presets.
    spec.traces = cli::splitList(
        cli::stringOpt(argc, argv, "--traces",
                       fast ? "brownout:cycles=2,square:cycles=2"
                            : "brownout,square,outages"));
    spec.battery_caps = fast ? std::vector<double>{2e-6, 50e-6}
                             : std::vector<double>{1e-6, 5e-6, 20e-6, 50e-6};
    std::string caps_arg = cli::stringOpt(argc, argv, "--battery-caps");
    if (!caps_arg.empty())
        spec.battery_caps = cli::positiveRealList("--battery-caps", caps_arg);
    spec.policies = {DegradePolicy::None, DegradePolicy::DrainOldest};
    std::string pols_arg = cli::stringOpt(argc, argv, "--policies");
    if (!pols_arg.empty()) {
        spec.policies.clear();
        for (const std::string &p : cli::splitList(pols_arg))
            spec.policies.push_back(parseDegradePolicy(p));
    }
    spec.rounds = static_cast<unsigned>(cli::unsignedArg(
        "--rounds", cli::stringOpt(argc, argv, "--rounds", fast ? "2" : "3"),
        1));
    spec.lifetimes = static_cast<unsigned>(cli::unsignedArg(
        "--lifetimes", cli::stringOpt(argc, argv, "--lifetimes", "1"), 1));
    spec.params.ops_per_thread = cli::unsignedArg(
        "--ops", cli::stringOpt(argc, argv, "--ops", fast ? "250" : "400"));
    spec.params.initial_elements = 80;
    spec.campaign_seed = cli::unsignedArg(
        "--campaign-seed", cli::stringOpt(argc, argv, "--campaign-seed", "1"));
    unsigned jobs = cli::jobsArg(argc, argv);

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
    {
        std::string caps;
        for (double c : spec.battery_caps)
            caps += (caps.empty() ? "" : ",") + compactDouble(c);
        rep.setConfig("battery_caps_j", caps);
    }
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
    rep.emitIfRequested(cli::jsonPathArg(argc, argv));

    if (const LifetimeResult *bug = summary.firstViolation()) {
        std::printf("VIOLATION repro: lifetime_campaign %s\n",
                    bug->reproLine().c_str());
        return 1;
    }
    return 0;
}
