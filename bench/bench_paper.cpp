/**
 * @file
 * bench_paper: every table and figure this repo reproduces from the
 * paper's evaluation, and the NVMM endurance campaign, as a recipe over
 * one experiment grid.
 *
 *   bench_paper [RECIPE...] [--fast] [--jobs N] [--json PATH]
 *
 * Recipes: fig7_exec_and_writes, fig8_sensitivity, pmem_strict,
 * procside_writes, drain_policy, ablation_drain, endurance and
 * table7_drain_energy .. table10_battery_sweep.
 *
 * A recipe has a name (its report's `bench` field), the grid points it
 * reads, and a view that prints its table and fills its report from the
 * results of those points. bench_paper submits the points of the named
 * recipes (all of them when none is named) as one runExperiments grid,
 * which simulates each distinct point once, then hands each view its own
 * results in its own submission order. The Table VII-X recipes read no
 * points: they evaluate the Table VI drain-cost model. The endurance
 * points end in a power failure and a recovery check.
 *
 * `--fast` shrinks the simulated runs (CI smoke mode), `--jobs N` sets
 * the worker-pool width (0, the default, = hardware concurrency), and
 * `--json PATH` writes the report of the one named recipe. Exit status:
 * 0 on success, 1 when a crash-checked point recovers inconsistently or
 * breaks its drain prefix, 2 on bad usage (src/api/cli.hh).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "api/cli.hh"
#include "api/experiment.hh"
#include "api/report.hh"
#include "energy/energy_model.hh"

using namespace bbb;

namespace
{

using Results = std::span<const ExperimentResult>;

/** The Table IV workload list used by Fig. 7 / Fig. 8. */
std::vector<std::string>
paperWorkloads()
{
    return {"rtree",   "ctree",  "hashmap",   "mutateNC",
            "mutateC", "swapNC", "swapC"};
}

/** Bench workload shape, honoring --fast. */
WorkloadParams
shapedParams(bool fast, std::uint64_t ops, std::uint64_t initial)
{
    WorkloadParams p = benchParams();
    p.ops_per_thread = fast ? ops / 8 : ops;
    p.initial_elements = fast ? initial / 8 : initial;
    if (fast)
        p.array_elements = 1ull << 17;
    return p;
}

/** Print a separator + title in a consistent style. */
void
banner(const char *title)
{
    const std::string rule(79, '=');
    std::printf("\n%s\n%s\n%s\n", rule.c_str(), title, rule.c_str());
}

/** Geometric mean of a vector of positive values. */
double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

/** Last thread's finish tick. */
std::uint64_t
execTicks(const ExperimentResult &r)
{
    return r.metrics.count("system.exec_ticks");
}

/** NVMM media block writes, each flush counted once. */
std::uint64_t
nvmmWrites(const ExperimentResult &r)
{
    return r.metrics.count("system.nvmm_writes_effective");
}

/** Persisting stores rejected by a full bbPB (counted once each). */
std::uint64_t
rejections(const ExperimentResult &r)
{
    return coreSum(r.metrics, "sb", "persist_rejections");
}

/** bbPB entries drained, by the drain policy or by eviction pressure. */
std::uint64_t
drained(const ExperimentResult &r)
{
    return bbpbCount(r.metrics, "drains") +
           bbpbCount(r.metrics, "forced_drains");
}

/**
 * Append every result to @p rep as a `workload/mode/bbpbN` experiment,
 * labelled in grid submission order.
 */
void
reportExperiments(BenchReport &rep, Results results)
{
    for (const ExperimentResult &r : results) {
        rep.addExperiment(r.workload + "/" + persistModeName(r.mode) +
                              "/bbpb" + std::to_string(r.bbpb_entries),
                          r.metrics);
    }
}

std::vector<ExperimentSpec>
noSpecs(bool)
{
    return {};
}

/* ---------------------------------------------------------------------
 * Figure 7: execution time (a) and NVMM writes (b) of BBB-32, BBB-1024
 * and eADR, normalized to eADR, across the Table IV workloads. The paper
 * values it is checked against are the report's `paper` section.
 */

/** The Fig. 7 shape, shared by the pmem_strict and procside views. */
WorkloadParams
fig7Params(bool fast)
{
    return shapedParams(fast, 4000, 100000);
}

/** Each Table IV workload in the Fig. 7 shape on each of @p cfgs. */
std::vector<ExperimentSpec>
fig7Grid(bool fast, std::initializer_list<SystemConfig> cfgs)
{
    std::vector<ExperimentSpec> specs;
    for (const auto &name : paperWorkloads()) {
        for (const SystemConfig &cfg : cfgs)
            specs.push_back({cfg, name, fig7Params(fast)});
    }
    return specs;
}

std::vector<ExperimentSpec>
fig7Specs(bool fast)
{
    return fig7Grid(fast, {benchConfig(PersistMode::Eadr),
                           benchConfig(PersistMode::BbbMemSide, 32),
                           benchConfig(PersistMode::BbbMemSide, 1024)});
}

void
fig7View(bool fast, Results results, BenchReport &rep)
{
    WorkloadParams params = fig7Params(fast);
    rep.setConfig("fast", fast);
    rep.setConfig("ops_per_thread", params.ops_per_thread);
    rep.setConfig("initial_elements", params.initial_elements);
    rep.setConfig("array_elements", params.array_elements);
    rep.paperRef("exec_time_x.bbb32.avg", 1.01);
    rep.paperRef("exec_time_x.bbb32.worst", 1.028);
    rep.paperRef("nvmm_writes_x.bbb32.avg", 1.049);
    rep.paperRef("nvmm_writes_x.bbb32.worst", 1.079);
    rep.paperRef("nvmm_writes_x.bbb1024.max", 1.01);
    reportExperiments(rep, results);

    banner("Figure 7: execution time and NVMM writes, "
           "BBB-32 / BBB-1024 / eADR (normalized to eADR)");
    std::printf("%-10s | %-29s | %-29s\n", "", "(a) execution time (x)",
                "(b) NVMM writes (x)");
    std::printf("%-10s | %9s %9s %9s | %9s %9s %9s\n", "workload",
                "BBB-32", "BBB-1024", "eADR", "BBB-32", "BBB-1024", "eADR");

    auto workloads = paperWorkloads();
    std::vector<double> time32, time1024, writes32, writes1024;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const std::string &name = workloads[w];
        const ExperimentResult &eadr = results[w * 3];
        const ExperimentResult &bbb32 = results[w * 3 + 1];
        const ExperimentResult &bbb1024 = results[w * 3 + 2];

        double t32 = double(execTicks(bbb32)) / execTicks(eadr);
        double t1024 = double(execTicks(bbb1024)) / execTicks(eadr);
        double w32 = double(nvmmWrites(bbb32)) / nvmmWrites(eadr);
        double w1024 = double(nvmmWrites(bbb1024)) / nvmmWrites(eadr);
        time32.push_back(t32);
        time1024.push_back(t1024);
        writes32.push_back(w32);
        writes1024.push_back(w1024);

        rep.measured().setReal("exec_time_x.bbb32." + name, t32);
        rep.measured().setReal("exec_time_x.bbb1024." + name, t1024);
        rep.measured().setReal("nvmm_writes_x.bbb32." + name, w32);
        rep.measured().setReal("nvmm_writes_x.bbb1024." + name, w1024);

        std::printf("%-10s | %9.3f %9.3f %9.3f | %9.3f %9.3f %9.3f\n",
                    name.c_str(), t32, t1024, 1.0, w32, w1024, 1.0);
    }

    rep.measured().setReal("exec_time_x.bbb32.geomean", geomean(time32));
    rep.measured().setReal("exec_time_x.bbb1024.geomean",
                           geomean(time1024));
    rep.measured().setReal("nvmm_writes_x.bbb32.geomean",
                           geomean(writes32));
    rep.measured().setReal("nvmm_writes_x.bbb1024.geomean",
                           geomean(writes1024));

    std::printf("%-10s | %9.3f %9.3f %9.3f | %9.3f %9.3f %9.3f\n",
                "geomean", geomean(time32), geomean(time1024), 1.0,
                geomean(writes32), geomean(writes1024), 1.0);
    std::printf("\nPaper: BBB-32 avg ~1.01x time (worst 1.028x), "
                "avg 1.049x writes (range 1.01-1.079x);\n"
                "       BBB-1024 ~1.00x time, <1.01x writes.\n");
}

/* ---------------------------------------------------------------------
 * Figure 8: bbPB-size sensitivity (1..1024 entries) of (a) rejected
 * persisting stores, (b) execution time and (c) bbPB drains, each the
 * geomean over the Table IV workloads normalized to one entry. Paper:
 * rejections ~0 by 16-32 entries, time flat after 32, drains after 64.
 */

constexpr unsigned kFig8Sizes[] = {1, 2, 4, 8, 16, 32,
                                   64, 128, 256, 512, 1024};

/**
 * Smaller structures than Fig. 7 for the bbPB-pressure sweeps (Fig. 8 and
 * the drain policies): 11 sizes x 7 workloads must simulate in minutes.
 */
WorkloadParams
sweepParams(bool fast)
{
    return shapedParams(fast, 2000, 20000);
}

std::vector<ExperimentSpec>
fig8Specs(bool fast)
{
    // Every (size, workload) point; the size-1 row doubles as the
    // normalization reference.
    WorkloadParams params = sweepParams(fast);
    std::vector<ExperimentSpec> specs;
    for (unsigned s : kFig8Sizes) {
        for (const auto &name : paperWorkloads()) {
            specs.push_back(
                {benchConfig(PersistMode::BbbMemSide, s), name, params});
        }
    }
    return specs;
}

void
fig8View(bool fast, Results results, BenchReport &rep)
{
    WorkloadParams params = sweepParams(fast);
    rep.setConfig("fast", fast);
    rep.setConfig("ops_per_thread", params.ops_per_thread);
    rep.setConfig("initial_elements", params.initial_elements);
    rep.setConfig("array_elements", params.array_elements);
    reportExperiments(rep, results);

    // result[size] = {rejections, exec, drains} geomean inputs
    std::map<unsigned, std::vector<double>> rej, exec, drains;

    auto workloads = paperWorkloads();
    for (std::size_t si = 0; si < std::size(kFig8Sizes); ++si) {
        unsigned s = kFig8Sizes[si];
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            const ExperimentResult &r = results[si * workloads.size() + w];
            const ExperimentResult &b = results[w]; // 1-entry reference
            // +1 smoothing keeps ratios defined when counts reach zero.
            rej[s].push_back(double(rejections(r) + 1) /
                             double(rejections(b) + 1));
            exec[s].push_back(double(execTicks(r)) / double(execTicks(b)));
            drains[s].push_back(double(drained(r) + 1) /
                                double(drained(b) + 1));
        }
    }

    banner("Figure 8: bbPB size sensitivity "
           "(geomean over workloads, normalized to 1 entry)");
    std::printf("%8s %18s %18s %18s\n", "entries", "(a) rejections (x)",
                "(b) exec time (x)", "(c) drains (x)");
    for (unsigned s : kFig8Sizes) {
        std::printf("%8u %18.4f %18.4f %18.4f\n", s, geomean(rej[s]),
                    geomean(exec[s]), geomean(drains[s]));
        std::string suffix = ".bbpb" + std::to_string(s);
        rep.measured().setReal("rejections_x" + suffix, geomean(rej[s]));
        rep.measured().setReal("exec_time_x" + suffix, geomean(exec[s]));
        rep.measured().setReal("drains_x" + suffix, geomean(drains[s]));
    }
    std::printf("\nPaper: rejections ~0 by 16-32 entries; execution time "
                "flat after 32; drains flat after 64.\n");
}

/* ---------------------------------------------------------------------
 * Table I / Section II: the cost of strict persistency on ADR/PMEM
 * (clwb + sfence after every persisting store) and of epoch-style
 * annotated barriers, against BBB and the unsafe no-barrier baseline.
 * The paper gives no numbers here, only the ordering this view checks:
 * unsafe ~= eADR ~= BBB-32 << PMEM-annotated < PMEM-strict.
 */

std::vector<ExperimentSpec>
pmemStrictSpecs(bool fast)
{
    return fig7Grid(fast, {benchConfig(PersistMode::Eadr),
                           benchConfig(PersistMode::AdrUnsafe),
                           benchConfig(PersistMode::BbbMemSide, 32),
                           benchConfig(PersistMode::AdrPmem),
                           benchConfig(PersistMode::PmemStrict)});
}

void
pmemStrictView(bool fast, Results results, BenchReport &rep)
{
    rep.setConfig("fast", fast);
    rep.setConfig("ops_per_thread", fig7Params(fast).ops_per_thread);

    banner("Table I ablation: strict-persistency penalty, "
           "PMEM flush+fence vs BBB (time normalized to eADR)");
    std::printf("%-10s | %10s %10s %12s %12s\n", "workload", "unsafe",
                "BBB-32", "pmem-epoch", "pmem-strict");

    auto workloads = paperWorkloads();
    std::vector<double> bbb, epoch, strict;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const std::string &name = workloads[w];
        const ExperimentResult &eadr = results[w * 5];
        const ExperimentResult &unsafe = results[w * 5 + 1];
        const ExperimentResult &b32 = results[w * 5 + 2];
        const ExperimentResult &pe = results[w * 5 + 3];
        const ExperimentResult &ps = results[w * 5 + 4];

        double base = double(execTicks(eadr));
        double tu = execTicks(unsafe) / base;
        double tb = execTicks(b32) / base;
        double te = execTicks(pe) / base;
        double ts = execTicks(ps) / base;
        bbb.push_back(tb);
        epoch.push_back(te);
        strict.push_back(ts);
        std::printf("%-10s | %10.3f %10.3f %12.3f %12.3f\n", name.c_str(),
                    tu, tb, te, ts);
        rep.measured().setReal("exec_time_x.unsafe." + name, tu);
        rep.measured().setReal("exec_time_x.bbb32." + name, tb);
        rep.measured().setReal("exec_time_x.pmem_epoch." + name, te);
        rep.measured().setReal("exec_time_x.pmem_strict." + name, ts);
        rep.addExperiment(name + "/eadr", eadr.metrics);
        rep.addExperiment(name + "/adr-unsafe", unsafe.metrics);
        rep.addExperiment(name + "/bbb-mem", b32.metrics);
        rep.addExperiment(name + "/pmem-epoch", pe.metrics);
        rep.addExperiment(name + "/pmem-strict", ps.metrics);
    }
    std::printf("%-10s | %10.3f %10.3f %12.3f %12.3f\n", "geomean", 1.0,
                geomean(bbb), geomean(epoch), geomean(strict));
    rep.measured().setReal("exec_time_x.bbb32.geomean", geomean(bbb));
    rep.measured().setReal("exec_time_x.pmem_epoch.geomean",
                           geomean(epoch));
    rep.measured().setReal("exec_time_x.pmem_strict.geomean",
                           geomean(strict));
    std::printf("\nExpected ordering: BBB pays ~nothing for strict "
                "persistency; PMEM pays for every flush+fence.\n");
}

/* ---------------------------------------------------------------------
 * Section V-C: processor-side vs memory-side bbPB NVMM write traffic.
 * Two views: the blocks *drained toward* NVMM (the paper's view, which
 * shows its 2.8x gap) and the media writes after WPQ coalescing, which
 * merges back-to-back same-block drains and absorbs part of the
 * processor-side penalty.
 */

std::vector<ExperimentSpec>
procsideSpecs(bool fast)
{
    return fig7Grid(fast, {benchConfig(PersistMode::Eadr),
                           benchConfig(PersistMode::BbbMemSide, 32),
                           benchConfig(PersistMode::BbbProcSide, 32)});
}

void
procsideView(bool fast, Results results, BenchReport &rep)
{
    rep.setConfig("fast", fast);
    rep.setConfig("bbpb_entries", std::uint64_t{32});
    rep.setConfig("ops_per_thread", fig7Params(fast).ops_per_thread);
    rep.paperRef("drain_writes_x.procside.avg", 2.8);
    rep.paperRef("media_writes_x.memside.avg", 1.049);

    banner("Section V-C: processor-side vs memory-side bbPB "
           "(normalized to eADR writes)");
    std::printf("%-10s | %12s %12s | %12s %12s | %10s\n", "workload",
                "mem media", "proc media", "mem drains", "proc drains",
                "rejections");

    auto workloads = paperWorkloads();
    std::vector<double> mem_media, proc_media, mem_drain, proc_drain;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const std::string &name = workloads[w];
        const ExperimentResult &eadr = results[w * 3];
        const ExperimentResult &mem = results[w * 3 + 1];
        const ExperimentResult &proc = results[w * 3 + 2];

        double base = double(nvmmWrites(eadr));
        double mm = nvmmWrites(mem) / base;
        double pm = nvmmWrites(proc) / base;
        double md = drained(mem) / base;
        double pd = drained(proc) / base;
        mem_media.push_back(mm);
        proc_media.push_back(pm);
        mem_drain.push_back(std::max(md, 1e-3));
        proc_drain.push_back(std::max(pd, 1e-3));
        std::printf("%-10s | %12.3f %12.3f | %12.3f %12.3f | %10llu\n",
                    name.c_str(), mm, pm, md, pd,
                    (unsigned long long)rejections(proc));
        rep.measured().setReal("media_writes_x.memside." + name, mm);
        rep.measured().setReal("media_writes_x.procside." + name, pm);
        rep.measured().setReal("drain_writes_x.memside." + name, md);
        rep.measured().setReal("drain_writes_x.procside." + name, pd);
        rep.addExperiment(name + "/eadr", eadr.metrics);
        rep.addExperiment(name + "/bbb-mem", mem.metrics);
        rep.addExperiment(name + "/bbb-proc", proc.metrics);
    }
    std::printf("%-10s | %12.3f %12.3f | %12.3f %12.3f |\n", "geomean",
                geomean(mem_media), geomean(proc_media),
                geomean(mem_drain), geomean(proc_drain));
    rep.measured().setReal("media_writes_x.memside.geomean",
                           geomean(mem_media));
    rep.measured().setReal("media_writes_x.procside.geomean",
                           geomean(proc_media));
    rep.measured().setReal("drain_writes_x.memside.geomean",
                           geomean(mem_drain));
    rep.measured().setReal("drain_writes_x.procside.geomean",
                           geomean(proc_drain));
    std::printf("\nPaper: processor-side ~2.8x eADR writes on average; "
                "memory-side +4.9%%.\n");
}

/* ---------------------------------------------------------------------
 * Drain-policy ablation (Section III-F future work): FCFS (the paper's
 * policy) vs least-recently-written-first vs random victims. Write-once
 * workloads tie; with write-hot blocks (linkedlist's head, rtree-spatial's
 * path rectangles) LRW keeps them buffered and trims NVMM writes.
 */

constexpr DrainPolicy kPolicies[] = {DrainPolicy::Fcfs, DrainPolicy::Lrw,
                                     DrainPolicy::Random};
constexpr const char *kPolicyWorkloads[] = {"hashmap", "linkedlist",
                                            "rtree-spatial", "mutateC"};

std::vector<ExperimentSpec>
drainPolicySpecs(bool fast)
{
    WorkloadParams params = sweepParams(fast);
    std::vector<ExperimentSpec> specs;
    for (const char *name : kPolicyWorkloads) {
        for (DrainPolicy policy : kPolicies) {
            SystemConfig cfg = benchConfig(PersistMode::BbbMemSide, 32);
            cfg.bbpb.drain_policy = policy;
            WorkloadParams p = params;
            if (std::string(name) == "rtree-spatial")
                p.ops_per_thread /= 2; // the heaviest workload
            specs.push_back({cfg, name, p});
        }
    }
    return specs;
}

void
drainPolicyView(bool fast, Results results, BenchReport &rep)
{
    rep.setConfig("fast", fast);
    rep.setConfig("bbpb_entries", std::uint64_t{32});
    rep.setConfig("ops_per_thread", sweepParams(fast).ops_per_thread);

    banner("Ablation: bbPB drain policy (32 entries; NVMM writes "
           "and exec time normalized to FCFS)");
    std::printf("%-14s | %9s %9s %9s | %9s %9s %9s\n", "workload",
                "fcfs_w", "lrw_w", "rand_w", "fcfs_t", "lrw_t", "rand_t");

    for (std::size_t w = 0; w < std::size(kPolicyWorkloads); ++w) {
        const char *workload = kPolicyWorkloads[w];
        double writes[3], times[3];
        for (std::size_t i = 0; i < 3; ++i) {
            const ExperimentResult &r = results[w * 3 + i];
            writes[i] = static_cast<double>(nvmmWrites(r));
            times[i] = static_cast<double>(execTicks(r));
            rep.addExperiment(std::string(workload) + "/" +
                                  drainPolicyName(kPolicies[i]),
                              r.metrics);
        }
        std::printf("%-14s | %9.3f %9.3f %9.3f | %9.3f %9.3f %9.3f\n",
                    workload, 1.0, writes[1] / writes[0],
                    writes[2] / writes[0], 1.0, times[1] / times[0],
                    times[2] / times[0]);
        for (std::size_t i = 1; i < 3; ++i) {
            std::string key =
                std::string(workload) + "." + drainPolicyName(kPolicies[i]);
            rep.measured().setReal(key + ".nvmm_writes_x",
                                   writes[i] / writes[0]);
            rep.measured().setReal(key + ".exec_time_x",
                                   times[i] / times[0]);
        }
    }
    std::printf("\nFCFS is the paper's shipped policy; LRW approximates "
                "its proposed prediction-based draining.\n");
}

/* ---------------------------------------------------------------------
 * Ablations of the Section III design choices DESIGN.md calls out:
 *   1. the drain threshold (III-F), 25%..100% of a 32-entry bbPB; the
 *      paper picks 75% to coalesce late yet keep entries for bursts;
 *   2. the LLC writeback-skip (III-E) for persistent victims;
 *   3. the rtree-spatial reuse ladder: geometric block-reuse distances
 *      are the adversarial case for a small coalescing window.
 */

constexpr double kThresholds[] = {0.25, 0.50, 0.75, 0.90, 1.00};
constexpr const char *kSkipWorkloads[] = {"hashmap", "ctree", "mutateC"};
constexpr unsigned kLadderSizes[] = {8, 32, 128, 512, 1024};

WorkloadParams
ablationParams(bool fast)
{
    return shapedParams(fast, 2000, 50000);
}

WorkloadParams
spatialParams(bool fast)
{
    return shapedParams(fast, 1000, 20000);
}

/**
 * Ablation points repeat workload/mode/entries (the threshold sweep is
 * five hashmap/bbb-mem/bbpb32 runs), so each section labels its
 * experiments by section and index.
 */
void
thresholdSweep(const ExperimentResult *results, BenchReport &rep)
{
    std::printf("\n-- drain threshold sweep (32-entry bbPB, hashmap) --\n");
    std::printf("%10s %14s %14s %14s %14s\n", "threshold", "exec (us)",
                "nvmm writes", "rejections", "coalesces");
    for (std::size_t i = 0; i < std::size(kThresholds); ++i) {
        const ExperimentResult &r = results[i];
        double exec_us = ticksToNs(execTicks(r)) / 1000.0;
        std::printf("%9.0f%% %14.1f %14llu %14llu %14llu\n",
                    kThresholds[i] * 100, exec_us,
                    (unsigned long long)nvmmWrites(r),
                    (unsigned long long)rejections(r),
                    (unsigned long long)bbpbCount(r.metrics, "coalesces"));
        std::string pct =
            "pct" + std::to_string(static_cast<int>(kThresholds[i] * 100));
        rep.measured().setReal("threshold." + pct + ".exec_us", exec_us);
        rep.measured().setCount("threshold." + pct + ".nvmm_writes",
                                nvmmWrites(r));
        rep.measured().setCount("threshold." + pct + ".rejections",
                                rejections(r));
        rep.addExperiment("threshold/" + pct, r.metrics);
    }
}

/** A memory-side backend variant that never skips LLC writebacks is not a
 *  separate class: the skip decision only fires for persistent blocks, so
 *  we emulate "no skip" by comparing against the skipped_writebacks count
 *  the hierarchy reports. */

void
writebackSkip(const ExperimentResult *results, BenchReport &rep)
{
    std::printf("\n-- LLC writeback-skip optimisation (Section III-E) --\n");
    std::printf("%-10s %16s %20s %22s\n", "workload", "nvmm writes",
                "skipped writebacks", "writes without skip");
    for (std::size_t i = 0; i < std::size(kSkipWorkloads); ++i) {
        const ExperimentResult &r = results[i];
        std::uint64_t writes = nvmmWrites(r);
        std::uint64_t skipped =
            r.metrics.count("hierarchy.skipped_writebacks");
        std::printf("%-10s %16llu %20llu %22llu\n", kSkipWorkloads[i],
                    (unsigned long long)writes, (unsigned long long)skipped,
                    (unsigned long long)(writes + skipped));
        std::string key = std::string("writeback_skip.") +
                          kSkipWorkloads[i];
        rep.measured().setCount(key + ".nvmm_writes", writes);
        rep.measured().setCount(key + ".skipped_writebacks", skipped);
        rep.addExperiment(std::string("writeback_skip/") + kSkipWorkloads[i],
                          r.metrics);
    }
}

void
reuseLadder(const ExperimentResult *results, BenchReport &rep)
{
    std::printf("\n-- rtree-spatial reuse ladder: bbPB size vs writes "
                "(normalized to eADR) --\n");
    const ExperimentResult &eadr = results[0];
    rep.addExperiment("reuse_ladder/eadr", eadr.metrics);
    std::printf("%10s %16s %14s\n", "entries", "writes (x eADR)",
                "exec (x eADR)");
    for (std::size_t i = 0; i < std::size(kLadderSizes); ++i) {
        const ExperimentResult &r = results[1 + i];
        double writes_x = double(nvmmWrites(r)) / nvmmWrites(eadr);
        double exec_x = double(execTicks(r)) / execTicks(eadr);
        std::printf("%10u %16.3f %14.3f\n", kLadderSizes[i], writes_x,
                    exec_x);
        std::string bbpb = "bbpb" + std::to_string(kLadderSizes[i]);
        rep.measured().setReal("reuse_ladder." + bbpb + ".nvmm_writes_x",
                               writes_x);
        rep.measured().setReal("reuse_ladder." + bbpb + ".exec_time_x",
                               exec_x);
        rep.addExperiment("reuse_ladder/" + bbpb, r.metrics);
    }
    std::printf("(interior-node rectangles reuse at geometric distances; "
                "a window smaller than the reuse\n distance re-drains "
                "them — the adversarial case for small persist buffers)\n");
}

std::vector<ExperimentSpec>
ablationSpecs(bool fast)
{
    WorkloadParams params = ablationParams(fast);
    WorkloadParams spatial = spatialParams(fast);
    std::vector<ExperimentSpec> specs;
    for (double thr : kThresholds) {
        SystemConfig cfg = benchConfig(PersistMode::BbbMemSide, 32);
        cfg.bbpb.drain_threshold = thr;
        specs.push_back({cfg, "hashmap", params});
    }
    for (const char *name : kSkipWorkloads) {
        specs.push_back(
            {benchConfig(PersistMode::BbbMemSide, 32), name, params});
    }
    specs.push_back(
        {benchConfig(PersistMode::Eadr), "rtree-spatial", spatial});
    for (unsigned s : kLadderSizes) {
        specs.push_back({benchConfig(PersistMode::BbbMemSide, s),
                         "rtree-spatial", spatial});
    }
    return specs;
}

void
ablationView(bool fast, Results results, BenchReport &rep)
{
    rep.setConfig("fast", fast);
    rep.setConfig("ops_per_thread", ablationParams(fast).ops_per_thread);
    rep.setConfig("spatial_ops_per_thread",
                  spatialParams(fast).ops_per_thread);

    banner("Ablations: drain policy, writeback skip, reuse ladder");
    const ExperimentResult *cursor = results.data();
    thresholdSweep(cursor, rep);
    cursor += std::size(kThresholds);
    writebackSkip(cursor, rep);
    cursor += std::size(kSkipWorkloads);
    reuseLadder(cursor, rep);
}

/* ---------------------------------------------------------------------
 * NVMM endurance: Fig. 7(b)'s writes priced as media wear. The Fig. 7
 * workloads run per media backend (direct pass-through vs the FTL wear
 * model) x persistency mode, each cell ending in a full-power-failure
 * drain and a recovery check. The memory-side BBB cells also cross the
 * drain policy (FCFS vs LRW): only its victim choice reads the policy,
 * so eADR and processor-side cells run FCFS alone.
 *
 * The FTL runs with a deliberately tiny endurance rating, because
 * bench-scale write streams touch each block only a handful of times:
 * endurance 4 retires hot frames, wear-delta 2 triggers static
 * wear-leveling between them, and the write-amplification and
 * projected-lifetime leaves (media.*) separate the drain policies. The
 * direct cells are the 1.0x write-amplification reference column.
 */

constexpr PersistMode kEnduranceModes[] = {
    PersistMode::Eadr, PersistMode::BbbMemSide, PersistMode::BbbProcSide};

const MediaModelConfig kEnduranceFtl{.kind = MediaKind::Ftl,
                                     .endurance_cycles = 4,
                                     .wear_delta = 2,
                                     .wl_interval = 8,
                                     .dwpd_rating = 1.0};

std::vector<ExperimentSpec>
enduranceSpecs(bool fast)
{
    std::vector<ExperimentSpec> specs;
    for (const std::string &name : paperWorkloads()) {
        for (PersistMode mode : kEnduranceModes) {
            for (DrainPolicy policy : {DrainPolicy::Fcfs, DrainPolicy::Lrw}) {
                if (policy != DrainPolicy::Fcfs &&
                    mode != PersistMode::BbbMemSide)
                    continue;
                for (MediaKind media : {MediaKind::Direct, MediaKind::Ftl}) {
                    SystemConfig cfg = benchConfig(mode, 32);
                    cfg.bbpb.drain_policy = policy;
                    if (media == MediaKind::Ftl)
                        cfg.media = kEnduranceFtl;
                    specs.push_back({cfg, name, ablationParams(fast),
                                     /*crash_at_end=*/true});
                }
            }
        }
    }
    return specs;
}

/**
 * Whether a crash-checked point recovered consistently from a drain that
 * kept its oldest-first prefix.
 */
bool
survivedCrash(const ExperimentResult &r)
{
    return r.recovery_consistent &&
           r.metrics.count("crash.prefix_violations") == 0;
}

void
enduranceView(bool fast, Results results, BenchReport &rep)
{
    WorkloadParams params = ablationParams(fast);
    rep.setConfig("fast", fast);
    rep.setConfig("ops_per_thread", params.ops_per_thread);
    rep.setConfig("initial_elements", params.initial_elements);
    rep.setConfig("array_elements", params.array_elements);
    rep.setConfig("ftl_endurance_cycles", kEnduranceFtl.endurance_cycles);
    rep.setConfig("ftl_wear_delta", std::uint64_t{kEnduranceFtl.wear_delta});
    rep.setConfig("ftl_wl_interval",
                  std::uint64_t{kEnduranceFtl.wl_interval});

    banner("NVMM endurance: write amplification and projected "
           "lifetime per media backend x mode x drain policy");
    std::printf("%-10s %-14s %-6s %-7s | %8s %9s %8s %8s | %10s\n",
                "workload", "mode", "policy", "media", "wr-amp",
                "migration", "retired", "max-wear", "life-days");

    std::vector<ExperimentSpec> specs = enduranceSpecs(fast);
    unsigned violations = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const ExperimentResult &r = results[i];
        std::string mode = persistModeName(r.mode);
        std::string policy = drainPolicyName(specs[i].cfg.bbpb.drain_policy);
        const bool ftl = specs[i].cfg.media.kind == MediaKind::Ftl;
        std::string media = mediaKindName(specs[i].cfg.media.kind);
        std::string label =
            r.workload + "/" + mode + "/" + policy + "/" + media;
        rep.addExperiment(label, r.metrics);
        if (!survivedCrash(r)) {
            ++violations;
            std::printf("%-52s ORACLE VIOLATION%s%s\n", label.c_str(),
                        r.recovery_consistent
                            ? ""
                            : " (inconsistent recovery)",
                        r.metrics.count("crash.prefix_violations")
                            ? " (drain prefix broken)"
                            : "");
            continue;
        }

        double wamp = r.metrics.real("media.write_amplification");
        double life = r.metrics.real("media.lifetime.projected_days");
        std::string key = "endurance." + media + "." + r.workload + "." +
                          mode + "." + policy;
        rep.measured().setReal(key + ".write_amplification", wamp);
        if (ftl) {
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
                    r.workload.c_str(), mode.c_str(), policy.c_str(),
                    media.c_str(), wamp,
                    (unsigned long long)r.metrics.count("media.migrations"),
                    (unsigned long long)r.metrics.count(
                        "media.retired_frames"),
                    r.metrics.real("media.frames.max_wear"),
                    ftl ? life : 0.0);
    }
    rep.measured().setCount("endurance.cells", specs.size());
    rep.measured().setCount("endurance.oracle_violations", violations);

    std::printf("\n%zu cells, %u oracle violations (every cell must "
                "recover consistently after its crash drain)\n",
                specs.size(), violations);
}

/* ---------------------------------------------------------------------
 * Table VII: flush-on-fail draining energy, eADR (average: only the
 * 44.9% dirty blocks) vs BBB-32 (worst case: full buffers), on the
 * Table V mobile and server platforms.
 */

void
drainEnergyRow(const PlatformSpec &platform, double paper_eadr_mj,
               double paper_bbb_uj, double paper_ratio, BenchReport &rep)
{
    DrainCostModel model(platform);
    double eadr_j = model.eadrDrainEnergyJ();
    double bbb_j = model.bbbDrainEnergyJ(32);
    std::printf("%-8s | %10.1f mJ %10.1f uJ %8.0fx | %8.1f mJ %8.0f uJ "
                "%6.0fx\n",
                platform.name.c_str(), eadr_j * 1e3, bbb_j * 1e6,
                eadr_j / bbb_j, paper_eadr_mj, paper_bbb_uj, paper_ratio);
    const std::string &p = platform.name;
    rep.measured().setReal(p + ".eadr_mj", eadr_j * 1e3);
    rep.measured().setReal(p + ".bbb_uj", bbb_j * 1e6);
    rep.measured().setReal(p + ".ratio", eadr_j / bbb_j);
    rep.paperRef(p + ".eadr_mj", paper_eadr_mj);
    rep.paperRef(p + ".bbb_uj", paper_bbb_uj);
    rep.paperRef(p + ".ratio", paper_ratio);
}

void
drainEnergyView(bool, Results, BenchReport &rep)
{
    rep.setConfig("bbpb_entries", std::uint64_t{32});

    banner("Table VII: draining energy, eADR (avg, 44.9% dirty) "
           "vs BBB-32 (worst case)");
    std::printf("%-8s | %33s | %26s\n", "system", "ours (eADR, BBB, ratio)",
                "paper (eADR, BBB, ratio)");
    drainEnergyRow(mobilePlatform(), 46.5, 145.0, 320.0, rep);
    drainEnergyRow(serverPlatform(), 550.0, 775.0, 709.0, rep);
    std::printf("\nModel: Table VI constants (1 pJ/B SRAM access; "
                "11.839 nJ/B L1/bbPB->NVMM; 11.228 nJ/B L2/L3->NVMM).\n");
}

/* ---------------------------------------------------------------------
 * Table VIII: draining time, eADR (dirty blocks) vs BBB-32 (full
 * buffers), from the per-channel NVMM write bandwidth and the Table V
 * channel counts.
 */

void
drainTimeRow(const PlatformSpec &platform, double paper_eadr_ms,
             double paper_bbb_us, double paper_ratio, BenchReport &rep)
{
    DrainCostModel model(platform);
    double eadr_s = model.eadrDrainTimeS();
    double bbb_s = model.bbbDrainTimeS(32);
    std::printf("%-8s | %9.2f ms %9.2f us %7.0fx | %6.1f ms %6.1f us "
                "%5.0fx\n",
                platform.name.c_str(), eadr_s * 1e3, bbb_s * 1e6,
                eadr_s / bbb_s, paper_eadr_ms, paper_bbb_us, paper_ratio);
    const std::string &p = platform.name;
    rep.measured().setReal(p + ".eadr_ms", eadr_s * 1e3);
    rep.measured().setReal(p + ".bbb_us", bbb_s * 1e6);
    rep.measured().setReal(p + ".ratio", eadr_s / bbb_s);
    rep.paperRef(p + ".eadr_ms", paper_eadr_ms);
    rep.paperRef(p + ".bbb_us", paper_bbb_us);
    rep.paperRef(p + ".ratio", paper_ratio);
}

void
drainTimeView(bool, Results, BenchReport &rep)
{
    rep.setConfig("bbpb_entries", std::uint64_t{32});

    banner("Table VIII: draining time, eADR (avg dirty) vs BBB-32");
    std::printf("%-8s | %31s | %24s\n", "system", "ours (eADR, BBB, ratio)",
                "paper (eADR, BBB, ratio)");
    drainTimeRow(mobilePlatform(), 0.8, 2.6, 307.0, rep);
    drainTimeRow(serverPlatform(), 1.8, 2.4, 750.0, rep);
    std::printf("\nModel: 2.3 GB/s NVMM write bandwidth per channel "
                "(Izraelevitz et al.), all channels drain in parallel.\n");
}

/* ---------------------------------------------------------------------
 * Table IX: battery volume (mm^3) for the worst-case drain (every cache
 * block dirty for eADR; full 32-entry bbPBs for BBB), SuperCap and
 * Li-thin, and the cubic battery's footprint over a 2.61 mm^2 core.
 */

void
batterySizeRows(const PlatformSpec &platform, BenchReport &rep)
{
    DrainCostModel model(platform);
    for (bool bbb : {false, true}) {
        for (BatteryTech t : {BatteryTech::SuperCap, BatteryTech::LiThin}) {
            double vol = bbb ? model.bbbBatteryVolumeMm3(t, 32)
                             : model.eadrBatteryVolumeMm3(t);
            std::printf("%-8s %-5s %-9s %14.3f %17.1f%%\n",
                        platform.name.c_str(), bbb ? "BBB" : "eADR",
                        batteryTechName(t), vol,
                        model.areaRatioToCore(vol) * 100.0);
            std::string key = platform.name;
            key += bbb ? ".bbb." : ".eadr.";
            key += batteryTechName(t);
            rep.measured().setReal(key + ".volume_mm3", vol);
            rep.measured().setReal(key + ".area_ratio",
                                   model.areaRatioToCore(vol));
        }
    }
}

void
batterySizeView(bool, Results, BenchReport &rep)
{
    rep.setConfig("bbpb_entries", std::uint64_t{32});
    rep.paperRef("mobile.eadr.SuperCap.volume_mm3", 2.9e3);
    rep.paperRef("mobile.eadr.Li-thin.volume_mm3", 30.0);
    rep.paperRef("mobile.bbb.SuperCap.volume_mm3", 4.1);
    rep.paperRef("mobile.bbb.Li-thin.volume_mm3", 0.04);
    rep.paperRef("server.eadr.SuperCap.volume_mm3", 34e3);
    rep.paperRef("server.eadr.Li-thin.volume_mm3", 300.0);
    rep.paperRef("server.bbb.SuperCap.volume_mm3", 21.6);
    rep.paperRef("server.bbb.Li-thin.volume_mm3", 0.21);

    banner("Table IX: battery volume and footprint-to-core ratio "
           "(worst-case provisioning)");
    std::printf("%-8s %-5s %-9s %14s %18s\n", "system", "scheme", "tech",
                "volume (mm^3)", "area/core (%)");
    batterySizeRows(mobilePlatform(), rep);
    batterySizeRows(serverPlatform(), rep);
    std::printf("\nPaper: mobile eADR 2.9e3/30 mm^3 (77x/3.6x core), "
                "BBB 4.1/0.04 mm^3 (97.2%%/4.5%%);\n"
                "       server eADR 34e3/300 mm^3 (404x/18.7x core), "
                "BBB 21.6/0.21 mm^3 (296%%/13.7%%).\n"
                "Densities: SuperCap 1e-4 Wh/cm^3, Li-thin 1e-2 Wh/cm^3; "
                "10x provisioning margin.\n");
}

/* ---------------------------------------------------------------------
 * Table X: BBB battery volume (mm^3) as the bbPB sweeps 1..1024
 * entries, for both platforms and both technologies.
 */

void
batterySweepView(bool, Results, BenchReport &rep)
{
    const unsigned sizes[] = {1, 4, 16, 32, 64, 256, 1024};
    const double paper_sc_mobile[] = {0.12, 0.50, 2.02, 4.1,
                                      8.1, 32.3, 129.3};
    const double paper_sc_server[] = {0.7, 2.7, 10.8, 21.6,
                                      43.1, 172.4, 689.7};
    for (unsigned i = 0; i < 7; ++i) {
        std::string e = ".bbpb" + std::to_string(sizes[i]);
        rep.paperRef("SuperCap.mobile" + e + ".volume_mm3",
                     paper_sc_mobile[i]);
        rep.paperRef("SuperCap.server" + e + ".volume_mm3",
                     paper_sc_server[i]);
    }

    banner("Table X: battery volume (mm^3) vs bbPB entries (1..1024)");
    std::printf("%-9s %-8s |", "tech", "system");
    for (unsigned s : sizes)
        std::printf(" %8u", s);
    std::printf("\n");

    for (BatteryTech t : {BatteryTech::SuperCap, BatteryTech::LiThin}) {
        for (const PlatformSpec &p : {mobilePlatform(), serverPlatform()}) {
            DrainCostModel model(p);
            std::printf("%-9s %-8s |", batteryTechName(t), p.name.c_str());
            for (unsigned s : sizes) {
                double vol = model.bbbBatteryVolumeMm3(t, s);
                std::printf(" %8.3f", vol);
                rep.measured().setReal(std::string(batteryTechName(t)) +
                                           "." + p.name + ".bbpb" +
                                           std::to_string(s) +
                                           ".volume_mm3",
                                       vol);
            }
            std::printf("\n");
        }
    }

    std::printf("\nPaper (SuperCap): mobile 0.12 0.50 2.02 4.1 8.1 32.3 "
                "129.3; server 0.7 2.7 10.8 21.6 43.1 172.4 689.7\n"
                "Paper (Li-thin):  mobile 0.001 0.005 0.02 0.04 0.08 0.3 "
                "1.3;  server 0.006 0.026 0.10 0.21 0.43 1.7 6.8\n"
                "Even a 1024-entry bbPB stays 22-49x cheaper than eADR "
                "(Table IX).\n");
}

/* --------------------------------------------------------------------- */

/** One table or figure: the points it reads and how it shows them. */
struct Recipe
{
    /** CLI name and the report's `bench` field. */
    const char *name;
    /** The grid points the view reads, in the order it reads them. */
    std::vector<ExperimentSpec> (*specs)(bool fast);
    /** Print the table and fill the report from those points' results. */
    void (*view)(bool fast, Results results, BenchReport &rep);
};

constexpr Recipe kRecipes[] = {
    {"fig7_exec_and_writes", fig7Specs, fig7View},
    {"fig8_sensitivity", fig8Specs, fig8View},
    {"pmem_strict", pmemStrictSpecs, pmemStrictView},
    {"procside_writes", procsideSpecs, procsideView},
    {"drain_policy", drainPolicySpecs, drainPolicyView},
    {"ablation_drain", ablationSpecs, ablationView},
    {"endurance", enduranceSpecs, enduranceView},
    {"table7_drain_energy", noSpecs, drainEnergyView},
    {"table8_drain_time", noSpecs, drainTimeView},
    {"table9_battery_size", noSpecs, batterySizeView},
    {"table10_battery_sweep", noSpecs, batterySweepView},
};

/**
 * Run the whole grid through the pool and print its wall-clock, so CI
 * logs show what the pool and the deduplication buy.
 */
std::vector<ExperimentResult>
runGrid(const std::vector<ExperimentSpec> &specs, unsigned jobs)
{
    std::vector<ExperimentResult> results;
    double secs =
        timedSeconds([&] { results = runExperiments(specs, jobs); });
    std::vector<std::size_t> first = firstEqualSpecs(specs);
    std::size_t distinct = 0;
    for (std::size_t i = 0; i < first.size(); ++i)
        distinct += first[i] == i;
    unsigned effective = static_cast<unsigned>(
        std::min<std::size_t>(resolveJobs(jobs), distinct));
    std::printf("[grid] %zu points (%zu distinct) on %u jobs: %.2f s "
                "wall\n",
                specs.size(), distinct, effective, secs);
    return results;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string usage = "usage: bench_paper [RECIPE...] [--fast] [--jobs N] "
                        "[--json PATH]\nrecipes:";
    for (const Recipe &r : kRecipes)
        usage += std::string(" ") + r.name;

    bool fast = false;
    unsigned jobs = 0;
    std::string json;
    int json_at = 0;
    std::vector<const Recipe *> selected;
    cli::Args args(argc, argv, usage);
    while (args.next()) {
        if (args.is("--fast")) {
            fast = true;
        } else if (args.is("--jobs")) {
            jobs = args.jobsValue();
        } else if (args.is("--json")) {
            json_at = args.pos();
            json = args.value();
        } else if (args.positional()) {
            auto it = std::find_if(
                std::begin(kRecipes), std::end(kRecipes),
                [&](const Recipe &r) { return args.is(r.name); });
            if (it == std::end(kRecipes))
                args.fail("unknown recipe");
            selected.push_back(it);
        } else {
            args.unknown();
        }
    }
    if (json_at && selected.size() != 1)
        args.fail("writes one report: name exactly one recipe", json_at);
    if (selected.empty()) {
        for (const Recipe &r : kRecipes)
            selected.push_back(&r);
    }

    // One grid for every selected recipe, each owning a contiguous slice.
    std::vector<ExperimentSpec> specs;
    std::vector<std::size_t> counts;
    for (const Recipe *r : selected) {
        std::vector<ExperimentSpec> own = r->specs(fast);
        counts.push_back(own.size());
        specs.insert(specs.end(), own.begin(), own.end());
    }
    std::vector<ExperimentResult> results;
    if (!specs.empty())
        results = runGrid(specs, jobs);

    Results rest(results);
    for (std::size_t k = 0; k < selected.size(); ++k) {
        BenchReport rep(selected[k]->name);
        selected[k]->view(fast, rest.first(counts[k]), rep);
        rest = rest.subspan(counts[k]);
        rep.emitIfRequested(json);
    }

    // Every crash-checked point must survive its crash.
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (specs[i].crash_at_end && !survivedCrash(results[i]))
            return 1;
    }
    return 0;
}
