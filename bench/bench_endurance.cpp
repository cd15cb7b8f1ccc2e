/**
 * @file
 * NVMM endurance campaign over the media-backend seam: the Fig. 7
 * workload matrix re-run per media backend (direct pass-through vs the
 * FTL wear model) x persistency mode, each cell ending in a
 * full-power-failure drain and a recovery check. The memory-side BBB
 * cells also cross the bbPB drain policy (FCFS vs LRW): only its victim
 * choice reads the policy, so eADR and processor-side cells run FCFS
 * alone.
 *
 * The FTL cells run with a deliberately tiny endurance rating so wear
 * effects are non-trivial at bench scale: frames wear out and retire,
 * wear-leveling migrates cold blocks, and the write-amplification /
 * projected-lifetime metrics (media.*) separate the drain policies.
 * The direct cells are the 1.0x write-amplification reference column.
 *
 * Every cell must recover consistently after the crash drain (zero
 * oracle violations is the exit-status contract), and the whole grid is
 * byte-identical at any --jobs width like every other bench.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/crash_engine.hh"
#include "api/system.hh"

using namespace bbb;

namespace
{

/** One grid cell: a machine + workload, run to a crash and judged. */
struct Cell
{
    SystemConfig cfg;
    std::string workload;
    WorkloadParams params;
    std::string media;
    std::string policy;
};

struct CellResult
{
    bool consistent = false;
    bool prefix_ok = false;
    Tick exec_ticks = 0;
    MetricSnapshot metrics;
};

CellResult
runCell(const Cell &cell)
{
    System sys(cell.cfg);
    auto wl = makeWorkload(cell.workload, cell.params);
    wl->install(sys);
    sys.run();

    CellResult r;
    r.exec_ticks = sys.executionTime();
    // Full power failure at quiescence: the battery drain streams every
    // dirty persistent byte through the media backend, then the FTL
    // "mount" flattens its remap table into the logical image.
    CrashReport rep = sys.crashNow();
    r.prefix_ok = rep.drain_prefix_ok;
    r.consistent = wl->checkRecovery(sys.pmemImage()).consistent();
    r.metrics = sys.snapshotMetrics();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bool fast = cli::fastMode(argc, argv);
    unsigned jobs = cli::jobsArg(argc, argv);
    std::string json = cli::jsonPathArg(argc, argv);
    WorkloadParams params = bbbench::shapedParams(fast, 2000, 50000);

    // Endurance rating chosen so bench-scale write streams retire frames
    // and trigger static wear-leveling; dwpd_rating prices the rated-
    // lifetime column.
    // Bench-scale write streams touch each block only a handful of
    // times, so the rating must sit inside that range for wear effects
    // to be observable: endurance 4 retires hot frames, wear-delta 2
    // triggers static wear-leveling between them.
    MediaModelConfig ftl;
    ftl.kind = MediaKind::Ftl;
    ftl.endurance_cycles = 4;
    ftl.wear_delta = 2;
    ftl.wl_interval = 8;
    ftl.dwpd_rating = 1.0;

    BenchReport rep("endurance");
    rep.setConfig("fast", fast);
    rep.setConfig("ops_per_thread", params.ops_per_thread);
    rep.setConfig("initial_elements", params.initial_elements);
    rep.setConfig("array_elements", params.array_elements);
    rep.setConfig("ftl_endurance_cycles", ftl.endurance_cycles);
    rep.setConfig("ftl_wear_delta", std::uint64_t{ftl.wear_delta});
    rep.setConfig("ftl_wl_interval", std::uint64_t{ftl.wl_interval});

    const auto workloads = bbbench::paperWorkloads();
    const PersistMode modes[] = {PersistMode::Eadr, PersistMode::BbbMemSide,
                                 PersistMode::BbbProcSide};
    const DrainPolicy policies[] = {DrainPolicy::Fcfs, DrainPolicy::Lrw};
    const MediaKind medias[] = {MediaKind::Direct, MediaKind::Ftl};

    std::vector<Cell> cells;
    for (const std::string &name : workloads) {
        for (PersistMode mode : modes) {
            for (DrainPolicy policy : policies) {
                if (policy != DrainPolicy::Fcfs &&
                    mode != PersistMode::BbbMemSide)
                    continue;
                for (MediaKind media : medias) {
                    Cell c;
                    c.cfg = benchConfig(mode, 32);
                    c.cfg.bbpb.drain_policy = policy;
                    if (media == MediaKind::Ftl)
                        c.cfg.media = ftl;
                    c.workload = name;
                    c.params = params;
                    c.media = mediaKindName(media);
                    c.policy = drainPolicyName(policy);
                    cells.push_back(std::move(c));
                }
            }
        }
    }
    std::vector<CellResult> results(cells.size());
    double secs = timedSeconds([&] {
        runIndexedJobs(
            cells.size(),
            [&](std::size_t i) { results[i] = runCell(cells[i]); }, jobs,
            [&](std::size_t i) {
                const Cell &c = cells[i];
                return c.workload + "/" + persistModeName(c.cfg.mode) +
                       "/" + c.policy + "/" + c.media;
            });
    });
    std::printf("[grid] %zu points on %u jobs: %.2f s wall\n", cells.size(),
                resolveJobs(jobs), secs);

    bbbench::banner("NVMM endurance: write amplification and projected "
                    "lifetime per media backend x mode x drain policy");
    std::printf("%-10s %-14s %-6s %-7s | %8s %9s %8s %8s | %10s\n",
                "workload", "mode", "policy", "media", "wr-amp",
                "migration", "retired", "max-wear", "life-days");

    unsigned violations = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        const CellResult &r = results[i];
        std::string label = c.workload + "/" +
                            persistModeName(c.cfg.mode) + "/" + c.policy +
                            "/" + c.media;
        rep.addExperiment(label, r.metrics);
        if (!r.consistent || !r.prefix_ok) {
            ++violations;
            std::printf("%-52s ORACLE VIOLATION%s%s\n", label.c_str(),
                        r.consistent ? "" : " (inconsistent recovery)",
                        r.prefix_ok ? "" : " (drain prefix broken)");
            continue;
        }

        double wamp = r.metrics.real("media.write_amplification");
        double life = r.metrics.real("media.lifetime.projected_days");
        std::string key = "endurance." + c.media + "." + c.workload + "." +
                          persistModeName(c.cfg.mode) + "." + c.policy;
        rep.measured().setReal(key + ".write_amplification", wamp);
        if (c.media == "ftl") {
            rep.measured().setReal(key + ".projected_days", life);
            rep.measured().setCount(
                key + ".retired_frames",
                r.metrics.count("media.retired_frames"));
            rep.measured().setCount(key + ".migrations",
                                    r.metrics.count("media.migrations"));
        }
        // Lifetimes extrapolate from sub-millisecond simulated runs, so
        // the day counts are tiny; scientific notation keeps the column
        // comparable across cells.
        std::printf("%-10s %-14s %-6s %-7s | %8.4f %9llu %8llu %8.0f | "
                    "%10.3e\n",
                    c.workload.c_str(), persistModeName(c.cfg.mode),
                    c.policy.c_str(), c.media.c_str(), wamp,
                    (unsigned long long)r.metrics.count("media.migrations"),
                    (unsigned long long)r.metrics.count(
                        "media.retired_frames"),
                    r.metrics.real("media.frames.max_wear"),
                    c.media == "ftl" ? life : 0.0);
    }
    rep.measured().setCount("endurance.cells", cells.size());
    rep.measured().setCount("endurance.oracle_violations", violations);

    std::printf("\n%zu cells, %u oracle violations (every cell must "
                "recover consistently after its crash drain)\n",
                cells.size(), violations);
    rep.emitIfRequested(json);
    return violations ? 1 : 0;
}
