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
 * Usage: see kUsage below.
 *
 * With --media ftl every lifetime runs on the FTL endurance backend (low
 * fixed endurance so wear retirement shows at campaign scale); the plan
 * token in each printed repro line carries media=ftl.
 *
 * The replay flags (--workload, --mode, --fault-plan, --trace,
 * --battery-j, --policy) need --seed, and the campaign-only flags are
 * refused with it.
 *
 * Exit status: 0 when no lifetime violates the oracle, 1 otherwise,
 * 2 on bad usage (src/api/cli.hh).
 */

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "api/cli.hh"
#include "api/report.hh"
#include "recover/lifetime.hh"

using namespace bbb;

namespace
{

const char *const kUsage =
    "usage: lifetime_campaign [--workloads NAME[,NAME...]] [--modes M[,M...]]\n"
    "          [--plans P[,P...]] [--rounds K] [--lifetimes N]\n"
    "          [--ops N] [--initial N] [--campaign-seed N] [--jobs N]\n"
    "          [--verbose] [--json PATH]\n"
    "          [--traces T[,T...]] [--battery-caps J[,J...]]\n"
    "          [--policies P[,P...]] [--media direct|ftl]\n"
    "   or: lifetime_campaign --workload NAME --mode M --seed S --rounds K\n"
    "          --fault-plan P [--trace T --battery-j J --policy P]\n"
    "          [--ops N] [--initial N] [--media direct|ftl]";

/** Endurance rating used whenever this example runs media=ftl: low
 *  enough that lifetime-scale write streams retire frames. */
constexpr std::uint64_t kFtlEnduranceCycles = 512;

} // namespace

int
main(int argc, char **argv)
{
    LifetimeSpec spec;
    spec.base = campaignConfig();
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
    std::optional<MediaKind> media;

    // Replay flags (--seed selects replay mode).
    std::string replay_workload;
    PersistMode replay_mode = PersistMode::BbbMemSide;
    std::uint64_t replay_seed = 0;
    std::string replay_plan = "none";
    PowerEnv replay_env;
    // The last flag of each mode, to reject one used in the other.
    int campaign_at = 0, replay_at = 0, seed_at = 0;

    cli::Args args(argc, argv, kUsage);
    while (args.next()) {
        int at = args.pos();
        if (args.is("--rounds")) {
            spec.rounds =
                static_cast<unsigned>(args.unsignedValue(1, UINT32_MAX));
        } else if (args.is("--ops")) {
            spec.params.ops_per_thread = args.unsignedValue();
        } else if (args.is("--initial")) {
            spec.params.initial_elements = args.unsignedValue();
        } else if (args.is("--media")) {
            media = args.enumValue<MediaKind>();
        } else if (args.is("--seed")) {
            replay_seed = args.unsignedValue();
            seed_at = at;
        } else if (args.is("--workload")) {
            replay_workload =
                args.checkNames({args.value()}, workloadNameError).front();
            replay_at = at;
        } else if (args.is("--mode")) {
            replay_mode = args.enumValue<PersistMode>();
            replay_at = at;
        } else if (args.is("--fault-plan")) {
            replay_plan =
                args.checkNames({args.value()}, faultPlanError).front();
            replay_at = at;
        } else if (args.is("--trace")) {
            replay_env.trace =
                args.checkNames({args.value()}, powerTraceError).front();
            replay_at = at;
        } else if (args.is("--battery-j")) {
            replay_env.capacity_j = args.realValue();
            replay_at = at;
        } else if (args.is("--policy")) {
            replay_env.policy = args.enumValue<DegradePolicy>();
            replay_at = at;
        } else {
            campaign_at = at;
            if (args.is("--workloads")) {
                spec.workloads = args.checkNames(cli::splitList(args.value()),
                                                 workloadNameError);
            } else if (args.is("--modes")) {
                spec.modes = args.enumListValue<PersistMode>();
            } else if (args.is("--plans")) {
                // Preset names only: a multi-pair key=value plan holds
                // commas, so it replays alone through --fault-plan.
                spec.plans.clear();
                for (const std::string &name :
                     args.checkNames(cli::splitList(args.value()),
                                     faultPlanError))
                    spec.plans.push_back({name, FaultPlan::parse(name)});
            } else if (args.is("--lifetimes")) {
                spec.lifetimes =
                    static_cast<unsigned>(args.unsignedValue(1, UINT32_MAX));
            } else if (args.is("--campaign-seed")) {
                spec.campaign_seed = args.unsignedValue();
            } else if (args.is("--jobs")) {
                jobs = args.jobsValue();
            } else if (args.is("--verbose")) {
                verbose = true;
            } else if (args.is("--json")) {
                json_path = args.value();
            } else if (args.is("--traces")) {
                spec.traces = args.checkNames(cli::splitList(args.value()),
                                              powerTraceError);
            } else if (args.is("--battery-caps")) {
                spec.battery_caps = args.realListValue();
            } else if (args.is("--policies")) {
                spec.policies = args.enumListValue<DegradePolicy>();
            } else {
                args.unknown();
            }
        }
    }
    const bool replay = seed_at != 0;
    if (replay && campaign_at)
        args.fail("a campaign flag; --seed replays one lifetime",
                  campaign_at);
    if (!replay && replay_at)
        args.fail("a replay flag; add --seed S to replay one lifetime",
                  replay_at);
    if (replay && replay_workload.empty())
        args.fail("replay needs --workload NAME", seed_at);

    if (media) {
        spec.base.media.kind = *media;
        if (media == MediaKind::Ftl)
            spec.base.media.endurance_cycles = kFtlEnduranceCycles;
        // Stamp the backend into the plan tokens so every printed repro
        // line is complete on its own.
        spec.plans = spec.planFamily();
        for (NamedFaultPlan &np : spec.plans)
            np.plan.media = media;
    }

    if (replay) {
        LifetimeSample sample;
        sample.cfg = spec.base;
        sample.cfg.mode = replay_mode;
        sample.workload = replay_workload;
        sample.params = spec.params;
        sample.plan = FaultPlan::parse(replay_plan);
        sample.plan_name = replay_plan;
        sample.power_env = replay_env;
        if (!sample.plan.media)
            sample.plan.media = media;
        if (sample.plan.media == MediaKind::Ftl)
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
    if (media == MediaKind::Ftl)
        std::printf("media    ftl (endurance %llu): %llu frames retired "
                    "across the campaign\n",
                    (unsigned long long)kFtlEnduranceCycles,
                    (unsigned long long)summary.metrics.count(
                        "lifetime.retired_frames"));

    if (!json_path.empty()) {
        BenchReport rep("lifetime_campaign");
        rep.setConfig("workloads", joinList(spec.workloads));
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
            std::string caps = joinList(spec.battery_caps, compactDouble);
            std::string pols = joinList(spec.policies, degradePolicyName);
            rep.setConfig("traces", joinList(spec.traces));
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
