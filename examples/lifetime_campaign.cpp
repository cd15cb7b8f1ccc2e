/**
 * @file
 * Example: the crash–recover–resume lifetime campaign and its
 * repro-replay face.
 *
 * Campaign mode (default) sweeps seeded lifetimes — K rounds of
 * run → crash → recover → resume over one persistent image — across
 * workloads x persistency modes x fault plans on the parallel
 * experiment pool. Every round is judged by the ledger-repair and
 * durable-linearizability oracle (see src/recover/lifetime.hh); the
 * tally plus a one-line repro for any violation is printed. `--rounds 1`
 * makes every lifetime a point crash: the crash-fault campaign.
 *
 * Replay mode re-runs exactly one lifetime from a repro line printed by
 * a campaign (crash ticks re-derive from the seed):
 *
 *   lifetime_campaign --workload hashmap --mode bbb-mem-side \
 *                     --seed 123456 --rounds 3 --fault-plan flaky-media
 *
 * Usage:
 *   lifetime_campaign [--workloads NAME[,NAME...]] [--modes M[,M...]]
 *                     [--plans P[,P...]] [--rounds K] [--lifetimes N]
 *                     [--ops N] [--initial N] [--campaign-seed N]
 *                     [--jobs N] [--verbose] [--json PATH]
 *                     [--media direct|ftl]
 *   lifetime_campaign --workload NAME --mode M --seed S --rounds K
 *                     --fault-plan P
 *
 * With --media ftl every lifetime runs on the FTL endurance backend (low
 * fixed endurance so wear retirement shows at campaign scale); the plan
 * token in each printed repro line carries media=ftl.
 *
 * Exit status: 0 when no lifetime violates the oracle, 1 otherwise.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/cli.hh"
#include "api/report.hh"
#include "recover/lifetime.hh"

using namespace bbb;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--workloads NAME[,NAME...]] [--modes M[,M...]]\n"
        "          [--plans P[,P...]] [--rounds K] [--lifetimes N]\n"
        "          [--ops N] [--initial N] [--campaign-seed N] [--jobs N]\n"
        "          [--verbose] [--json PATH]\n"
        "          [--traces T[,T...]] [--battery-caps J[,J...]]\n"
        "          [--policies P[,P...]] [--media direct|ftl]\n"
        "   or: %s --workload NAME --mode M --seed S --rounds K "
        "--fault-plan P\n"
        "          [--trace T --battery-j J --policy P] "
        "[--media direct|ftl]\n",
        argv0, argv0);
    std::exit(2);
}

/** Endurance rating used whenever this example runs media=ftl: low
 *  enough that lifetime-scale write streams retire frames. */
constexpr std::uint64_t kFtlEnduranceCycles = 512;

/** The campaign machine: small enough that crash points land mid-run. */
SystemConfig
campaignCfg()
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

/**
 * Resolve --plans tokens: comma-separated preset names (multi-pair
 * key=value plans contain commas themselves — replay those one at a
 * time through --fault-plan).
 */
std::vector<NamedFaultPlan>
parsePlans(const std::string &arg)
{
    std::vector<NamedFaultPlan> plans;
    for (const std::string &name : bbb::cli::splitList(arg))
        plans.push_back({name, FaultPlan::parse(name)});
    return plans;
}

} // namespace

int
main(int argc, char **argv)
{
    LifetimeSpec spec;
    spec.base = campaignCfg();
    spec.workloads = {"hashmap", "skiplist", "linkedlist"};
    spec.params.ops_per_thread = 400;
    spec.params.initial_elements = 100;
    spec.params.array_elements = 1 << 12;
    spec.rounds = 3;
    spec.lifetimes = 1;
    spec.min_crash_tick = nsToTicks(2000);
    spec.max_crash_tick = nsToTicks(120000);
    spec.campaign_seed = 1;

    unsigned jobs = 0;
    bool verbose = false;
    std::string json_path;
    std::string media;

    // Replay flags (presence of --seed selects replay mode).
    std::string replay_workload;
    std::string replay_mode = "bbb-mem-side";
    std::uint64_t replay_seed = 0;
    bool replay = false;
    std::string replay_plan = "none";
    PowerEnv replay_env;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                usage(argv[0]);
            return argv[i];
        };
        if (arg == "--workloads") {
            spec.workloads = bbb::cli::splitList(next());
        } else if (arg == "--modes") {
            spec.modes.clear();
            for (const std::string &m : bbb::cli::splitList(next()))
                spec.modes.push_back(persistModeFromName(m));
        } else if (arg == "--plans") {
            spec.plans = parsePlans(next());
        } else if (arg == "--rounds") {
            spec.rounds = static_cast<unsigned>(
                bbb::cli::unsignedArg("--rounds", next(), 1));
        } else if (arg == "--lifetimes") {
            spec.lifetimes = static_cast<unsigned>(
                bbb::cli::unsignedArg("--lifetimes", next(), 1));
        } else if (arg == "--ops") {
            spec.params.ops_per_thread =
                bbb::cli::unsignedArg("--ops", next());
        } else if (arg == "--initial") {
            spec.params.initial_elements =
                bbb::cli::unsignedArg("--initial", next());
        } else if (arg == "--campaign-seed") {
            spec.campaign_seed =
                bbb::cli::unsignedArg("--campaign-seed", next());
        } else if (arg == "--jobs") {
            jobs = static_cast<unsigned>(
                bbb::cli::unsignedArg("--jobs", next()));
        } else if (arg == "--verbose") {
            verbose = true;
        } else if (arg == "--json") {
            json_path = next();
        } else if (arg == "--workload") {
            replay_workload = next();
        } else if (arg == "--mode") {
            replay_mode = next();
        } else if (arg == "--seed") {
            replay_seed = bbb::cli::unsignedArg("--seed", next());
            replay = true;
        } else if (arg == "--fault-plan") {
            replay_plan = next();
        } else if (arg == "--traces") {
            spec.traces = bbb::cli::splitList(next());
        } else if (arg == "--battery-caps") {
            spec.battery_caps =
                bbb::cli::positiveRealList("--battery-caps", next());
        } else if (arg == "--policies") {
            spec.policies.clear();
            for (const std::string &tok : bbb::cli::splitList(next()))
                spec.policies.push_back(parseDegradePolicy(tok));
        } else if (arg == "--trace") {
            replay_env.trace = next();
        } else if (arg == "--battery-j") {
            replay_env.capacity_j =
                bbb::cli::positiveReal("--battery-j", next());
        } else if (arg == "--policy") {
            replay_env.policy = parseDegradePolicy(next());
        } else if (arg == "--media") {
            media = next();
            (void)mediaKindFromName(media); // validate (fatal on typo)
        } else if (arg == "--strict-args") {
            // This loop is already strict: unknown or value-less flags
            // exit(2) via usage(). Accepted so campaign scripts can pass
            // the same flag set to drivers and cli::-based benches.
        } else {
            usage(argv[0]);
        }
    }

    if (!media.empty()) {
        spec.base.media.kind = mediaKindFromName(media);
        if (media == "ftl")
            spec.base.media.endurance_cycles = kFtlEnduranceCycles;
        // Stamp the backend into the plan tokens so every printed repro
        // line is complete on its own.
        spec.plans = spec.planFamily();
        for (NamedFaultPlan &np : spec.plans)
            np.plan.media = media;
    }

    if (replay) {
        if (replay_workload.empty())
            usage(argv[0]);
        LifetimeSample sample;
        sample.cfg = spec.base;
        sample.cfg.mode = persistModeFromName(replay_mode);
        sample.workload = replay_workload;
        sample.params = spec.params;
        sample.plan = FaultPlan::parse(replay_plan);
        sample.plan_name = replay_plan;
        sample.power_env = replay_env;
        if (!media.empty() && sample.plan.media.empty())
            sample.plan.media = media;
        if (sample.plan.media == "ftl")
            sample.cfg.media.endurance_cycles = kFtlEnduranceCycles;
        sample.seed = replay_seed;
        sample.rounds = spec.rounds;
        sample.min_crash_tick = spec.min_crash_tick;
        sample.max_crash_tick = spec.max_crash_tick;

        LifetimeResult r = runLifetimeSample(sample);
        std::printf("replay   %s\n", r.reproLine().c_str());
        std::printf("outcome  %s\n", lifetimeOutcomeName(r.outcome));
        for (std::size_t i = 0; i < r.round_log.size(); ++i) {
            const LifetimeRound &rr = r.round_log[i];
            std::printf("round %zu  crash %9.1f us  %-18s damaged %3llu  "
                        "repairs %3llu  dropped %4llu  healed %llu/%llu "
                        "torn %llu dangling %llu oob %llu  image %016llx%s%s\n",
                        i, ticksToNs(rr.crash_tick) / 1000.0,
                        recoveryStatusName(rr.recovery),
                        (unsigned long long)rr.damaged_blocks,
                        (unsigned long long)rr.repairs,
                        (unsigned long long)rr.dropped,
                        (unsigned long long)rr.healed.intact,
                        (unsigned long long)rr.healed.checked,
                        (unsigned long long)rr.healed.torn,
                        (unsigned long long)rr.healed.dangling,
                        (unsigned long long)rr.healed.oob,
                        (unsigned long long)rr.image_fingerprint,
                        rr.oracle_ok ? "" : "  ORACLE: ",
                        rr.detail.c_str());
            std::printf("         drain %llu wpq + %llu bbpb blocks, %llu "
                        "sacrificed, %llu torn, %llu retries, %llu "
                        "recrashes, %.3f uJ%s  retired %llu\n",
                        (unsigned long long)rr.report.wpq_blocks,
                        (unsigned long long)rr.report.bbpb_blocks,
                        (unsigned long long)rr.report.sacrificed_blocks,
                        (unsigned long long)rr.report.torn_media_blocks,
                        (unsigned long long)rr.report.media_retries,
                        (unsigned long long)rr.report.recrashes,
                        rr.report.battery_spent_j * 1e6,
                        rr.report.battery_exhausted ? " (EXHAUSTED)" : "",
                        (unsigned long long)rr.retired_frames);
            if (rr.power_round)
                std::printf("         budget %.3e J%s%s  proactive %llu\n",
                            rr.charge_at_outage,
                            rr.brownout_outage ? "  brownout-outage" : "",
                            rr.had_warning ? "  warned" : "",
                            (unsigned long long)rr.proactive_blocks);
        }
        if (r.powered)
            std::printf(
                "power    outages %llu (brownout %llu) survived %llu "
                "warnings %llu resume-waits %llu%s  min-headroom %.3e J\n",
                (unsigned long long)r.power.outages,
                (unsigned long long)r.power.brownout_outages,
                (unsigned long long)r.power.brownouts_survived,
                (unsigned long long)r.power.warnings,
                (unsigned long long)r.power.resume_waits,
                r.power.starved ? "  STARVED" : "",
                r.power.min_headroom_j);
        return r.outcome == LifetimeOutcome::OracleViolation ? 1 : 0;
    }

    LifetimeSummary summary = runLifetimeCampaign(spec, jobs);

    if (verbose) {
        for (const LifetimeResult &r : summary.results) {
            std::printf("%-12s %-14s %-16s %-18s %s\n", r.workload.c_str(),
                        persistModeName(r.mode), r.plan_name.c_str(),
                        lifetimeOutcomeName(r.outcome),
                        r.reproLine().c_str());
        }
    }

    std::printf("lifetime campaign %zu lifetimes (%u rounds each): "
                "%llu clean, %llu degraded-repaired, %llu "
                "oracle-violations\n",
                summary.results.size(), spec.rounds,
                (unsigned long long)summary.clean,
                (unsigned long long)summary.degraded,
                (unsigned long long)summary.violations);
    if (media == "ftl")
        std::printf("media    ftl (endurance %llu): %llu frames retired "
                    "across the campaign\n",
                    (unsigned long long)kFtlEnduranceCycles,
                    (unsigned long long)summary.metrics.count(
                        "lifetime.retired_frames"));

    if (!json_path.empty()) {
        BenchReport rep("lifetime_campaign");
        std::string names;
        for (const std::string &w : spec.workloads)
            names += (names.empty() ? "" : ",") + w;
        rep.setConfig("workloads", names);
        rep.setConfig("rounds", std::uint64_t{spec.rounds});
        rep.setConfig("lifetimes", std::uint64_t{spec.lifetimes});
        rep.setConfig("ops_per_thread",
                      std::uint64_t{spec.params.ops_per_thread});
        rep.setConfig("initial_elements",
                      std::uint64_t{spec.params.initial_elements});
        rep.setConfig("campaign_seed", std::uint64_t{spec.campaign_seed});
        rep.setConfig("bbpb_entries", std::uint64_t{spec.base.bbpb.entries});
        rep.setConfig("media", mediaKindName(spec.base.media.kind));
        if (!spec.traces.empty()) {
            std::string traces, caps, pols;
            for (const std::string &t : spec.traces)
                traces += (traces.empty() ? "" : ",") + t;
            for (double c : spec.battery_caps)
                caps += (caps.empty() ? "" : ",") + compactDouble(c);
            for (DegradePolicy p : spec.policies) {
                if (!pols.empty())
                    pols += ",";
                pols += degradePolicyName(p);
            }
            rep.setConfig("traces", traces);
            if (!caps.empty())
                rep.setConfig("battery_caps_j", caps);
            if (!pols.empty())
                rep.setConfig("policies", pols);
        }
        rep.measured().merge(summary.metrics, "");
        rep.writeFile(json_path);
    }

    if (const LifetimeResult *bug = summary.firstViolation()) {
        std::printf("VIOLATION repro: %s %s\n", argv[0],
                    bug->reproLine().c_str());
        if (const LifetimeRound *rr = bug->firstViolation())
            std::printf("VIOLATION round %zu: %s\n",
                        static_cast<std::size_t>(rr - bug->round_log.data()),
                        rr->detail.c_str());
        return 1;
    }
    return 0;
}
