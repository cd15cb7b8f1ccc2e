/**
 * @file
 * Example: the crash-fault campaign driver and its repro-replay face.
 *
 * Campaign mode (default) sweeps seeded crash points x fault plans x
 * workloads on the parallel experiment pool, classifies every sample
 * against the recovery oracle (clean / degraded-prefix /
 * oracle-violation) and prints the tally plus a one-line repro for any
 * violation.
 *
 * Replay mode re-runs exactly one sample from a repro line printed by a
 * campaign:
 *
 *   fault_campaign --workload hashmap --seed 123456 \
 *                  --crash-tick 98765 --fault-plan battery_j=2e-6
 *
 * Usage:
 *   fault_campaign [--workloads NAME[,NAME...]] [--points N] [--ops N]
 *                  [--initial N] [--campaign-seed N] [--jobs N]
 *                  [--battery-fraction F] [--media direct|ftl]
 *                  [--verbose] [--json PATH]
 *   fault_campaign --workload NAME --seed S --crash-tick T
 *                  --fault-plan PLAN [--media direct|ftl]
 *
 * With --media ftl every sample runs on the FTL endurance backend (low
 * fixed endurance so wear retirement shows at campaign scale); the plan
 * token in each printed repro line carries media=ftl, so replaying the
 * line reproduces the same machine with no extra flags.
 *
 * Exit status: 0 when no sample violates the oracle, 1 otherwise.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "api/cli.hh"
#include "api/report.hh"
#include "fault/campaign.hh"

using namespace bbb;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--workloads NAME[,NAME...]] [--points N] [--ops N]\n"
        "          [--initial N] [--campaign-seed N] [--jobs N]\n"
        "          [--battery-fraction F]\n"
        "          [--media direct|ftl]\n"
        "          [--verbose] [--json PATH]\n"
        "   or: %s --workload NAME --seed S --crash-tick T --fault-plan P\n"
        "          [--media direct|ftl]\n"
        "plans: none",
        argv0, argv0);
    for (const auto &np : faultPlanPresets()) {
        if (np.name != "none")
            std::fprintf(stderr, " %s", np.name.c_str());
    }
    std::fprintf(stderr, " or key=value[,key=value...]\n");
    std::exit(2);
}

/** Endurance rating used whenever this example runs media=ftl: low
 *  enough that campaign-scale write streams retire frames. */
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
    cfg.mode = PersistMode::BbbMemSide;
    cfg.bbpb.entries = 8;
    cfg.l1d.repl = ReplPolicy::Random;
    cfg.llc.repl = ReplPolicy::Random;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    CampaignSpec spec;
    spec.base = campaignCfg();
    spec.workloads = {"hashmap", "btree", "skiplist"};
    spec.params.ops_per_thread = 500;
    spec.params.initial_elements = 100;
    spec.params.array_elements = 1 << 12;
    spec.crash_points = 14;
    spec.min_crash_tick = nsToTicks(2000);
    spec.max_crash_tick = nsToTicks(120000);
    spec.campaign_seed = 1;

    unsigned jobs = 0;
    bool verbose = false;
    double battery_fraction = 0.0;
    std::string json_path;
    std::string media;

    // Replay flags (presence of --crash-tick selects replay mode).
    std::string replay_workload;
    std::uint64_t replay_seed = 0;
    Tick replay_tick = 0;
    bool replay = false;
    std::string replay_plan = "none";

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                usage(argv[0]);
            return argv[i];
        };
        if (arg == "--workloads") {
            spec.workloads = bbb::cli::splitList(next());
        } else if (arg == "--points") {
            spec.crash_points = static_cast<unsigned>(
                std::strtoul(next().c_str(), nullptr, 10));
        } else if (arg == "--ops") {
            spec.params.ops_per_thread =
                std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--initial") {
            spec.params.initial_elements =
                std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--campaign-seed") {
            spec.campaign_seed = std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--jobs") {
            jobs = static_cast<unsigned>(
                std::strtoul(next().c_str(), nullptr, 10));
        } else if (arg == "--battery-fraction") {
            battery_fraction = std::strtod(next().c_str(), nullptr);
        } else if (arg == "--media") {
            media = next();
            (void)mediaKindFromName(media); // validate (fatal on typo)
        } else if (arg == "--verbose") {
            verbose = true;
        } else if (arg == "--json") {
            json_path = next();
        } else if (arg == "--workload") {
            replay_workload = next();
        } else if (arg == "--seed") {
            replay_seed = std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--crash-tick") {
            replay_tick = std::strtoull(next().c_str(), nullptr, 10);
            replay = true;
        } else if (arg == "--fault-plan") {
            replay_plan = next();
        } else if (arg == "--strict-args") {
            // This loop is already strict: unknown or value-less flags
            // exit(2) via usage(). Accepted so campaign scripts can pass
            // the same flag set to drivers and cli::-based benches.
        } else {
            usage(argv[0]);
        }
    }

    if (!media.empty())
        spec.base.media.kind = mediaKindFromName(media);

    if (replay) {
        if (replay_workload.empty())
            usage(argv[0]);
        CrashSample sample;
        sample.cfg = spec.base;
        sample.cfg.seed = replay_seed;
        sample.workload = replay_workload;
        sample.params = spec.params;
        sample.params.seed = replay_seed;
        sample.crash_tick = replay_tick;
        sample.plan = FaultPlan::parse(replay_plan);
        sample.plan_name = replay_plan;
        if (!media.empty() && sample.plan.media.empty())
            sample.plan.media = media;
        // FTL replays/campaigns use the example's fixed low endurance so
        // wear retirement is observable at campaign scale; the repro
        // line only needs to carry media=ftl.
        if (sample.plan.media == "ftl" || media == "ftl")
            sample.cfg.media.endurance_cycles = kFtlEnduranceCycles;

        CrashSampleResult r = runCrashSample(sample);
        std::printf("replay   %s\n", r.reproLine().c_str());
        std::printf("outcome  %s\n", campaignOutcomeName(r.outcome));
        std::printf("drain    %llu wpq + %llu bbpb blocks, %llu sacrificed,"
                    " %llu torn, %llu retries, %llu recrashes\n",
                    (unsigned long long)r.report.wpq_blocks,
                    (unsigned long long)r.report.bbpb_blocks,
                    (unsigned long long)r.report.sacrificed_blocks,
                    (unsigned long long)r.report.torn_media_blocks,
                    (unsigned long long)r.report.media_retries,
                    (unsigned long long)r.report.recrashes);
        std::printf("battery  %.3f uJ spent%s\n",
                    r.report.battery_spent_j * 1e6,
                    r.report.battery_exhausted ? " (EXHAUSTED)" : "");
        std::printf("recovery raw %llu/%llu/%llu  repaired %llu/%llu/%llu"
                    "  (intact/torn/dangling)\n",
                    (unsigned long long)r.raw.intact,
                    (unsigned long long)r.raw.torn,
                    (unsigned long long)r.raw.dangling,
                    (unsigned long long)r.repaired.intact,
                    (unsigned long long)r.repaired.torn,
                    (unsigned long long)r.repaired.dangling);
        std::printf("image    fingerprint %016llx, %llu damaged blocks\n",
                    (unsigned long long)r.image_fingerprint,
                    (unsigned long long)r.damaged_blocks);
        if (sample.plan.media == "ftl")
            std::printf("media    ftl: %llu frames retired for wear\n",
                        (unsigned long long)r.retired_frames);
        return r.outcome == CampaignOutcome::OracleViolation ? 1 : 0;
    }

    // Optionally append an undersized battery sized for THIS machine to
    // the preset family (fraction of the worst-case crash budget).
    spec.plans = faultPlanPresets();
    if (battery_fraction > 0.0) {
        NamedFaultPlan np;
        np.name = "undersized-battery";
        np.plan = undersizedBatteryPlan(spec.base, battery_fraction);
        spec.plans.push_back(np);
    }
    if (!media.empty()) {
        // Stamp the backend into every plan token so each printed repro
        // line is a complete one-liner (`--media ftl` optional on replay).
        for (NamedFaultPlan &np : spec.plans)
            np.plan.media = media;
        if (media == "ftl")
            spec.base.media.endurance_cycles = kFtlEnduranceCycles;
    }

    CampaignSummary summary;
    double secs = timedSeconds(
        [&] { summary = runCrashCampaign(spec, jobs); });

    if (verbose) {
        for (const CrashSampleResult &r : summary.results) {
            std::printf("%-16s %-20s %-16s %s\n", r.workload.c_str(),
                        r.plan_name.c_str(),
                        campaignOutcomeName(r.outcome),
                        r.reproLine().c_str());
        }
    }

    std::printf("campaign %zu samples: %llu clean, %llu degraded-prefix, "
                "%llu oracle-violations\n",
                summary.results.size(),
                (unsigned long long)summary.clean,
                (unsigned long long)summary.degraded,
                (unsigned long long)summary.violations);
    if (media == "ftl") {
        std::uint64_t retired = 0;
        for (const CrashSampleResult &r : summary.results)
            retired += r.retired_frames;
        std::printf("media    ftl (endurance %llu): %llu frames retired "
                    "across the campaign\n",
                    (unsigned long long)kFtlEnduranceCycles,
                    (unsigned long long)retired);
    }

    if (!json_path.empty()) {
        BenchReport rep("fault_campaign");
        std::string names;
        for (const std::string &w : spec.workloads)
            names += (names.empty() ? "" : ",") + w;
        rep.setConfig("workloads", names);
        rep.setConfig("crash_points", std::uint64_t{spec.crash_points});
        rep.setConfig("ops_per_thread",
                      std::uint64_t{spec.params.ops_per_thread});
        rep.setConfig("initial_elements",
                      std::uint64_t{spec.params.initial_elements});
        rep.setConfig("campaign_seed", std::uint64_t{spec.campaign_seed});
        rep.setConfig("bbpb_entries", std::uint64_t{spec.base.bbpb.entries});
        rep.setConfig("media", mediaKindName(spec.base.media.kind));
        rep.measured().merge(summary.metrics, "");
        rep.noteRun(secs, jobs);
        rep.writeFile(json_path);
    }

    if (const CrashSampleResult *bug = summary.firstViolation()) {
        std::printf("VIOLATION repro: %s %s\n", argv[0],
                    bug->reproLine().c_str());
        return 1;
    }
    return 0;
}
