/**
 * @file
 * Example: a general-purpose experiment driver over the public API.
 *
 * Runs any registered workload under any persistency mode with arbitrary
 * bbPB sizing and prints the full metric set plus (optionally) the raw
 * statistics dump — the command-line face of the library.
 *
 * Usage:
 *   run_experiment [--workload NAME[,NAME...]|all] [--mode MODE]
 *                  [--entries N] [--ops N] [--initial N] [--threshold F]
 *                  [--policy fcfs|lrw|random] [--jobs N] [--stats]
 *                  [--json PATH]
 *
 * Modes: adr-unsafe, adr-pmem, pmem-strict, eadr, bbb-mem-side,
 *        bbb-proc-side.
 *
 * With a single workload the full report (stats, crash drain, recovery)
 * is printed. With a comma-separated list or `all`, the grid is
 * submitted to the parallel experiment pool (`--jobs N`, or BBB_JOBS,
 * default hardware concurrency) and one CSV row is printed per point.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "api/cli.hh"
#include "api/experiment.hh"
#include "api/report.hh"
#include "api/system.hh"

using namespace bbb;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--workload NAME[,NAME...]|all] [--mode MODE]\n"
                 "          [--entries N] [--ops N] [--initial N]\n"
                 "          [--threshold F] [--policy fcfs|lrw|random]\n"
                 "          [--media direct|ftl] [--endurance N]\n"
                 "          [--jobs N] [--stats] [--json PATH]\n\n"
                 "workloads:",
                 argv0);
    for (const auto &name : workloadNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, " rtree-spatial btree linkedlist\n");
    std::exit(2);
}

PersistMode
parseMode(const std::string &s, bool &auto_strict)
{
    auto_strict = false;
    if (s == "adr-unsafe")
        return PersistMode::AdrUnsafe;
    if (s == "adr-pmem")
        return PersistMode::AdrPmem;
    if (s == "pmem-strict") {
        auto_strict = true;
        return PersistMode::AdrPmem;
    }
    if (s == "eadr")
        return PersistMode::Eadr;
    if (s == "bbb-mem-side")
        return PersistMode::BbbMemSide;
    if (s == "bbb-proc-side")
        return PersistMode::BbbProcSide;
    fatal("unknown mode '%s'", s.c_str());
}

DrainPolicy
parsePolicy(const std::string &s)
{
    if (s == "fcfs")
        return DrainPolicy::Fcfs;
    if (s == "lrw")
        return DrainPolicy::Lrw;
    if (s == "random")
        return DrainPolicy::Random;
    fatal("unknown drain policy '%s'", s.c_str());
}

/** Split "a,b,c" (or "all") into workload names. */
std::vector<std::string>
parseWorkloads(const std::string &arg)
{
    if (arg == "all")
        return workloadNames();
    return bbb::cli::splitList(arg);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload = "hashmap";
    std::string json_path;
    bool auto_strict = false;
    bool dump_stats = false;
    unsigned jobs = bbb::cli::jobsArg(argc, argv);
    SystemConfig cfg = benchConfig(PersistMode::BbbMemSide, 32);
    WorkloadParams params = benchParams();
    params.ops_per_thread = 2000;
    params.initial_elements = 20000;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                usage(argv[0]);
            return argv[i];
        };
        if (arg == "--workload") {
            workload = next();
        } else if (arg == "--jobs") {
            next(); // parsed and validated by jobsArg above
        } else if (arg == "--mode") {
            cfg.mode = parseMode(next(), auto_strict);
            cfg.pmem_auto_strict = auto_strict;
        } else if (arg == "--entries") {
            // A 0-entry bbPB rejects every persisting store: no run ends.
            cfg.bbpb.entries = static_cast<unsigned>(
                bbb::cli::unsignedArg("--entries", next(), 1, UINT32_MAX));
        } else if (arg == "--ops") {
            params.ops_per_thread = bbb::cli::unsignedArg("--ops", next());
        } else if (arg == "--initial") {
            params.initial_elements =
                bbb::cli::unsignedArg("--initial", next());
        } else if (arg == "--threshold") {
            cfg.bbpb.drain_threshold =
                bbb::cli::positiveReal("--threshold", next(), 1.0);
        } else if (arg == "--policy") {
            cfg.bbpb.drain_policy = parsePolicy(next());
        } else if (arg == "--media") {
            cfg.media.kind = mediaKindFromName(next());
        } else if (arg == "--endurance") {
            cfg.media.endurance_cycles =
                bbb::cli::unsignedArg("--endurance", next());
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--json") {
            json_path = next();
        } else {
            usage(argv[0]);
        }
    }

    // Multi-workload sweeps go through the parallel pool as one grid and
    // print CSV; the rich single-run report needs direct System access.
    std::vector<std::string> sweep = parseWorkloads(workload);
    if (sweep.size() > 1) {
        std::vector<ExperimentSpec> specs;
        for (const std::string &name : sweep)
            specs.push_back({cfg, name, params});
        std::vector<ExperimentResult> results =
            runExperiments(specs, jobs);
        std::printf("%s\n", ExperimentResult::csvHeader().c_str());
        for (const ExperimentResult &r : results)
            std::printf("%s\n", r.toCsv().c_str());
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
    workload = sweep.empty() ? workload : sweep.front();

    System sys(cfg);
    auto wl = makeWorkload(workload, params);
    wl->install(sys);
    sys.run();

    std::printf("workload            %s\n", workload.c_str());
    std::printf("mode                %s%s\n", persistModeName(cfg.mode),
                auto_strict ? " (strict per-store flush+fence)" : "");
    std::printf("bbpb                %u entries, %.0f%% threshold, %s\n",
                cfg.bbpb.entries, cfg.bbpb.drain_threshold * 100,
                drainPolicyName(cfg.bbpb.drain_policy));
    if (cfg.media.kind == MediaKind::Ftl)
        std::printf("media               ftl (endurance %llu, wear-delta "
                    "%u): %llu programs, %llu migrations, %llu retired\n",
                    (unsigned long long)cfg.media.endurance_cycles,
                    cfg.media.wear_delta,
                    (unsigned long long)sys.stats().lookup("media",
                                                           "programs"),
                    (unsigned long long)sys.stats().lookup("media",
                                                           "migrations"),
                    (unsigned long long)sys.stats().lookup(
                        "media", "retired_frames"));
    std::printf("execution time      %.1f us\n",
                ticksToNs(sys.executionTime()) / 1000.0);
    std::printf("nvmm writes         %llu (flush-fair)\n",
                (unsigned long long)sys.effectiveNvmmWrites());
    std::printf("persisting stores   %llu of %llu stores\n",
                (unsigned long long)sys.stats().lookup(
                    "hierarchy", "persisting_stores"),
                (unsigned long long)sys.stats().lookup("hierarchy",
                                                       "stores"));
    const char *bbpb_group =
        cfg.mode == PersistMode::BbbProcSide ? "bbpb_proc" : "bbpb";
    std::printf("bbpb drains         %llu (+%llu forced, %llu coalesces)\n",
                (unsigned long long)sys.stats().lookup(bbpb_group, "drains"),
                (unsigned long long)sys.stats().lookup(bbpb_group,
                                                       "forced_drains"),
                (unsigned long long)sys.stats().lookup(bbpb_group,
                                                       "coalesces"));

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

    if (dump_stats) {
        std::printf("\n");
        sys.stats().dumpAll(std::cout);
    }
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
