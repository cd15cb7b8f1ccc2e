/**
 * @file
 * Example: a general-purpose experiment driver over the public API.
 *
 * Runs any registered workload under any persistency mode with arbitrary
 * bbPB sizing and prints its headline figures (`--json PATH` writes
 * every leaf of the metric tree) — the command-line face of the library.
 *
 * Usage: see the usage text in main(); it lists every mode, drain
 * policy, media kind and workload name. An unknown name exits 2 naming
 * its argument.
 *
 * With a single workload the full report (stats, crash drain, recovery)
 * is printed. With a comma-separated list or `all` (every registered
 * workload), the grid is submitted to the parallel experiment pool
 * (`--jobs N`, default 0 = hardware concurrency) and one fixed-width row
 * is printed per point. Bad usage exits 2 (src/api/cli.hh).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "api/cli.hh"
#include "api/experiment.hh"
#include "api/report.hh"
#include "api/system.hh"

using namespace bbb;

int
main(int argc, char **argv)
{
    std::string usage =
        "usage: run_experiment [--workload NAME[,NAME...]|all] "
        "[--mode MODE]\n"
        "          [--entries N] [--ops N] [--initial N]\n"
        "          [--threshold F] [--policy POLICY] [--media MEDIA]\n"
        "          [--endurance N] [--jobs N] [--json PATH]\n"
        "modes: " +
        joinList(nameValues<PersistMode>(), persistModeName, " ") +
        "\npolicies: " +
        joinList(nameValues<DrainPolicy>(), drainPolicyName, " ") +
        "\nmedia: " + joinList(nameValues<MediaKind>(), mediaKindName, " ") +
        "\nworkloads: " + joinList(workloadNames(), std::identity{}, " ");

    std::vector<std::string> sweep = {"hashmap"};
    std::string json_path;
    unsigned jobs = 0;
    SystemConfig cfg = benchConfig(PersistMode::BbbMemSide, 32);
    WorkloadParams params = benchParams();
    params.ops_per_thread = 2000;
    params.initial_elements = 20000;

    cli::Args args(argc, argv, usage);
    while (args.next()) {
        if (args.is("--workload")) {
            std::string names = args.value();
            sweep = names == "all" ? workloadNames()
                                   : args.checkNames(cli::splitList(names),
                                                     workloadNameError);
        } else if (args.is("--jobs")) {
            jobs = args.jobsValue();
        } else if (args.is("--mode")) {
            cfg.mode = args.enumValue<PersistMode>();
        } else if (args.is("--entries")) {
            // A 0-entry bbPB rejects every persisting store: no run ends.
            cfg.bbpb.entries =
                static_cast<unsigned>(args.unsignedValue(1, UINT32_MAX));
        } else if (args.is("--ops")) {
            params.ops_per_thread = args.unsignedValue();
        } else if (args.is("--initial")) {
            params.initial_elements = args.unsignedValue();
        } else if (args.is("--threshold")) {
            cfg.bbpb.drain_threshold = args.realValue(1.0);
        } else if (args.is("--policy")) {
            cfg.bbpb.drain_policy = args.enumValue<DrainPolicy>();
        } else if (args.is("--media")) {
            cfg.media.kind = args.enumValue<MediaKind>();
        } else if (args.is("--endurance")) {
            cfg.media.endurance_cycles = args.unsignedValue();
        } else if (args.is("--json")) {
            json_path = args.value();
        } else {
            args.unknown();
        }
    }

    // Multi-workload sweeps go through the parallel pool as one grid and
    // print a row per point; the rich single-run report needs direct
    // System access.
    if (sweep.size() > 1) {
        std::vector<ExperimentSpec> specs;
        for (const std::string &name : sweep)
            specs.push_back({cfg, name, params});
        std::vector<ExperimentResult> results =
            runExperiments(specs, jobs);
        std::printf("mode %s, %u bbPB entries\n", persistModeName(cfg.mode),
                    cfg.bbpb.entries);
        std::printf("%-14s %12s %12s %11s %11s %11s %9s\n", "workload",
                    "exec(us)", "nvmm_writes", "rejections", "drains",
                    "coalesces", "%P-store");
        for (std::size_t i = 0; i < results.size(); ++i) {
            const MetricSnapshot &m = results[i].metrics;
            std::uint64_t stores = m.count("hierarchy.stores");
            std::printf(
                "%-14s %12.1f %12llu %11llu %11llu %11llu %8.1f%%\n",
                sweep[i].c_str(),
                ticksToNs(m.count("system.exec_ticks")) / 1000.0,
                (unsigned long long)m.count("system.nvmm_writes_effective"),
                (unsigned long long)coreSum(m, "sb", "persist_rejections"),
                (unsigned long long)(bbpbCount(m, "drains") +
                                     bbpbCount(m, "forced_drains")),
                (unsigned long long)bbpbCount(m, "coalesces"),
                stores ? 100.0 * m.count("hierarchy.persisting_stores") /
                             stores
                       : 0.0);
        }
        if (!json_path.empty()) {
            BenchReport report("run_experiment");
            report.setConfig("mode", persistModeName(cfg.mode));
            report.setConfig("bbpb_entries",
                             std::uint64_t{cfg.bbpb.entries});
            report.setConfig("ops_per_thread",
                             std::uint64_t{params.ops_per_thread});
            report.setConfig("initial_elements",
                             std::uint64_t{params.initial_elements});
            for (std::size_t i = 0; i < results.size(); ++i)
                report.addExperiment(sweep[i], results[i].metrics);
            report.writeFile(json_path);
        }
        return 0;
    }
    const std::string &workload = sweep.front();

    System sys(cfg);
    auto wl = makeWorkload(workload, params);
    wl->install(sys);
    sys.run();
    const MetricSnapshot run = sys.snapshotMetrics();

    std::printf("workload            %s\n", workload.c_str());
    std::printf("mode                %s\n", persistModeName(cfg.mode));
    std::printf("bbpb                %u entries, %.0f%% threshold, %s\n",
                cfg.bbpb.entries, cfg.bbpb.drain_threshold * 100,
                drainPolicyName(cfg.bbpb.drain_policy));
    if (cfg.media.kind == MediaKind::Ftl)
        std::printf("media               ftl (endurance %llu, wear-delta "
                    "%u): %llu programs, %llu migrations, %llu retired\n",
                    (unsigned long long)cfg.media.endurance_cycles,
                    cfg.media.wear_delta,
                    (unsigned long long)run.count("media.programs"),
                    (unsigned long long)run.count("media.migrations"),
                    (unsigned long long)run.count("media.retired_frames"));
    std::printf("execution time      %.1f us\n",
                ticksToNs(run.count("system.exec_ticks")) / 1000.0);
    std::printf("nvmm writes         %llu (flush-fair)\n",
                (unsigned long long)run.count("system.nvmm_writes_effective"));
    std::printf("persisting stores   %llu of %llu stores\n",
                (unsigned long long)run.count("hierarchy.persisting_stores"),
                (unsigned long long)run.count("hierarchy.stores"));
    std::printf("bbpb drains         %llu (+%llu forced, %llu coalesces)\n",
                (unsigned long long)bbpbCount(run, "drains"),
                (unsigned long long)bbpbCount(run, "forced_drains"),
                (unsigned long long)bbpbCount(run, "coalesces"));

    // End-of-run crash: what would the battery have to drain right now?
    CrashReport rep = sys.crashNow();
    std::printf("crash drain         %llu blocks, %.2f uJ, %.3f us\n",
                (unsigned long long)(rep.wpq_blocks + rep.bbpb_blocks +
                                     rep.cache_blocks_l1 +
                                     rep.cache_blocks_llc),
                rep.drain_energy_j * 1e6, rep.drain_time_s * 1e6);
    RecoveryResult res = wl->checkRecovery(sys.pmemImage());
    std::printf("recovery            %llu intact / %llu torn / %llu "
                "dangling -> %s\n",
                (unsigned long long)res.intact,
                (unsigned long long)res.torn,
                (unsigned long long)res.dangling,
                res.consistent() ? "CONSISTENT" : "CORRUPT");

    if (!json_path.empty()) {
        BenchReport report("run_experiment");
        report.setConfig("workload", workload);
        report.setConfig("media", mediaKindName(cfg.media.kind));
        report.setConfig("mode", persistModeName(cfg.mode));
        report.setConfig("bbpb_entries", std::uint64_t{cfg.bbpb.entries});
        report.setConfig("ops_per_thread",
                         std::uint64_t{params.ops_per_thread});
        report.setConfig("initial_elements",
                         std::uint64_t{params.initial_elements});
        report.measured().merge(sys.snapshotMetrics(), "");
        report.writeFile(json_path);
    }
    return res.consistent() || cfg.mode == PersistMode::AdrUnsafe ? 0 : 1;
}
