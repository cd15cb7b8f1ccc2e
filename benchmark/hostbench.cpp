/**
 * @file
 * hostbench: the host-performance benchmark driver.
 *
 * Runs one benchmark workload in this process and prints one JSON
 * document on stdout: per-pass host timings (each untraced pass with a
 * host-speed probe around it), the simulated outputs the
 * golden check compares, exact work counts, the process's peak RSS and,
 * with --trace, the per-layer metrics plus a Chrome trace-event file
 * (one track per pool worker and one `drivers` track).
 *
 * Everything is measured from outside the library. A grid point makes
 * exactly the four calls runExperiment() makes (System::System,
 * makeWorkload + Workload::install, System::run,
 * System::snapshotMetrics), each timed with steady_clock; `--self-test`
 * proves its metric tree is byte-identical to runExperiment()'s.
 * Lifetimes go through planLifetimeCampaign/runLifetimeSample, and each
 * layer driver calls one layer's public API in isolation.
 * benchmark/run.py builds this driver, aggregates its passes, checks the
 * goldens and prints the metrics.
 *
 * Usage:
 *   hostbench --workload NAME [--seed S] [--scale bench|smoke]
 *             [--passes N | --seconds T] [--trace PATH]
 *   hostbench --self-test
 *
 * --passes N runs N untraced passes (N traced/untraced pairs with
 * --trace); --seconds T instead keeps starting passes while the next one
 * is expected to finish within T seconds of start-up.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "api/experiment.hh"
#include "api/system.hh"
#include "cache/hierarchy.hh"
#include "core/bbpb.hh"
#include "cpu/store_buffer.hh"
#include "mem/backing_store.hh"
#include "mem/ftl/ftl_media.hh"
#include "mem/mem_ctrl.hh"
#include "recover/lifetime.hh"
#include "recover/recovery_manager.hh"
#include "sim/event_queue.hh"
#include "sim/fiber.hh"
#include "sim/json.hh"
#include "sim/rng.hh"

#ifndef HOSTBENCH_BUILD_TYPE
#define HOSTBENCH_BUILD_TYPE "unknown"
#endif

using namespace bbb;

namespace
{

using Clock = std::chrono::steady_clock;

/** Time origin of every stamp and span. */
const Clock::time_point kEpoch = Clock::now();

double
nowS()
{
    return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

/** Start and end of one timed call, in seconds since kEpoch. */
struct Stamp
{
    double start = 0.0;
    double end = 0.0;

    double dur() const { return end - start; }
};

/** One span of the Chrome trace. Track 0 is `drivers`; 1 + w is worker w. */
struct Span
{
    std::string name;
    std::string cat;
    std::string detail;
    unsigned track = 0;
    Stamp when;
};

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return percentile(v, 0.5);
}

// --- workloads -----------------------------------------------------------

/**
 * Workload sizes. `bench` is the benchmark: passes of one to three
 * seconds, so a run's median over many passes rides out the shared
 * host's slow patches (single ten-second passes at the bench binaries'
 * full size varied by +-8%). `smoke` is the quick CI check.
 */
struct Scale
{
    const char *name;
    /** fig7 grid: the bench_fig7_exec_and_writes --fast shape. */
    std::uint64_t fig7_ops;
    std::uint64_t fig7_initial;
    std::uint64_t fig7_array;
    /** persist_storm: ops per thread over 1M-element arrays. */
    std::uint64_t storm_ops;
    /** crash_lifetimes: per-life ops, prebuilt elements, lifetimes per
     *  (workload, mode, plan) cell. */
    std::uint64_t life_ops;
    std::uint64_t life_initial;
    unsigned lifetimes;
    /** Layer-driver batch sizes are divided by this. */
    std::uint64_t driver_div;
};

const Scale kScales[] = {
    {"bench", 500, 12500, 1ull << 17, 4000, 100, 200, 2, 1},
    {"smoke", 125, 3125, 1ull << 17, 1000, 50, 200, 1, 8},
};

struct GridPoint
{
    std::string label;
    SystemConfig cfg;
    std::string workload;
    WorkloadParams params;
};

std::string
pointLabel(const std::string &workload, const SystemConfig &cfg)
{
    std::string label = workload + "/" + persistModeName(cfg.mode);
    if (cfg.usesBbpb())
        label += "/bbpb" + std::to_string(cfg.bbpb.entries);
    if (cfg.media.kind != MediaKind::Direct)
        label += std::string("/") + mediaKindName(cfg.media.kind);
    return label;
}

/** bench_fig7_exec_and_writes: Table IV x {eADR, BBB-32, BBB-1024}. */
std::vector<GridPoint>
fig7Grid(const Scale &scale, std::uint64_t seed)
{
    WorkloadParams p = benchParams();
    p.ops_per_thread = scale.fig7_ops;
    p.initial_elements = scale.fig7_initial;
    p.array_elements = scale.fig7_array;
    p.seed = seed;
    std::vector<GridPoint> grid;
    for (const char *wl : {"rtree", "ctree", "hashmap", "mutateNC", "mutateC",
                           "swapNC", "swapC"}) {
        for (const SystemConfig &cfg :
             {benchConfig(PersistMode::Eadr),
              benchConfig(PersistMode::BbbMemSide, 32),
              benchConfig(PersistMode::BbbMemSide, 1024)})
            grid.push_back({pointLabel(wl, cfg), cfg, wl, p});
    }
    return grid;
}

/** Store-dominated array workloads across every persist path. */
std::vector<GridPoint>
persistStormGrid(const Scale &scale, std::uint64_t seed)
{
    WorkloadParams p = benchParams();
    p.ops_per_thread = scale.storm_ops;
    p.seed = seed;
    SystemConfig ftl = benchConfig(PersistMode::BbbMemSide, 32);
    ftl.media.kind = MediaKind::Ftl;
    std::vector<GridPoint> grid;
    for (const char *wl : {"mutateNC", "swapC"}) {
        for (const SystemConfig &cfg :
             {benchConfig(PersistMode::AdrPmem),
              benchConfig(PersistMode::BbbMemSide, 32),
              benchConfig(PersistMode::BbbProcSide, 32),
              benchConfig(PersistMode::Eadr), ftl})
            grid.push_back({pointLabel(wl, cfg), cfg, wl, p});
    }
    return grid;
}

/** 3 workloads x 4 safe modes x 5 fault presets x N lifetimes of 3. */
LifetimeSpec
crashLifetimesSpec(const Scale &scale, std::uint64_t seed)
{
    LifetimeSpec spec;
    spec.base = benchConfig(PersistMode::BbbMemSide);
    spec.workloads = {"hashmap", "skiplist", "linkedlist"};
    spec.params.ops_per_thread = scale.life_ops;
    spec.params.initial_elements = scale.life_initial;
    spec.params.seed = seed;
    spec.rounds = 3;
    spec.lifetimes = scale.lifetimes;
    spec.min_crash_tick = nsToTicks(2000);
    spec.max_crash_tick = nsToTicks(120000);
    spec.campaign_seed = seed;
    return spec;
}

// --- one pass --------------------------------------------------------------

/** Host-side timing of one pool job (a grid point or a lifetime). */
struct JobTiming
{
    unsigned worker = 0;
    Stamp job;
    Stamp ctor;
    Stamp install;
    Stamp run;
    Stamp snapshot;
};

using FieldValue = std::variant<std::uint64_t, std::string>;

/** A unit's simulated outputs, as the golden check compares them. */
struct UnitRecord
{
    std::string label;
    std::vector<std::pair<std::string, FieldValue>> fields;
    /** Why the unit failed; empty when it ran clean. */
    std::string failure;
};

using WorkCounts = std::map<std::string, std::uint64_t>;

/** Every exact work count, zeroed, so each run reports the same keys. */
WorkCounts
emptyWork()
{
    WorkCounts w;
    for (const char *k :
         {"sim.events", "sim.ops", "cpu.sb_full_stalls",
          "cpu.persist_rejections", "cache.l1_misses", "cache.llc_misses",
          "cache.invalidations", "core.bbpb_drains", "core.bbpb_coalesces",
          "core.bbpb_migrations", "mem.wpq_inserts", "mem.nvmm_media_writes",
          "mem.nvmm_media_reads", "mem.media_migrations", "recover.repairs",
          "recover.dropped", "recover.degraded"})
        w[k] = 0;
    return w;
}

std::uint64_t
sumPerCore(const MetricSnapshot &m, const char *group, const char *stat,
           unsigned cores)
{
    std::uint64_t sum = 0;
    for (unsigned c = 0; c < cores; ++c)
        sum += m.count(group + std::to_string(c) + "." + stat);
    return sum;
}

void
addWork(WorkCounts &w, const MetricSnapshot &m, unsigned cores)
{
    w["sim.events"] += m.count("sim.events_fired");
    w["sim.ops"] += m.count("sim.ops");
    w["cpu.sb_full_stalls"] += sumPerCore(m, "core", "sb_full_stalls", cores);
    w["cpu.persist_rejections"] +=
        sumPerCore(m, "sb", "persist_rejections", cores);
    w["cache.l1_misses"] += m.count("hierarchy.l1_misses");
    w["cache.llc_misses"] += m.count("hierarchy.llc_misses");
    w["cache.invalidations"] += m.count("hierarchy.invalidations");
    for (const char *g : {"bbpb.", "bbpb_proc."}) {
        w["core.bbpb_drains"] += m.count(std::string(g) + "drains");
        w["core.bbpb_coalesces"] += m.count(std::string(g) + "coalesces");
        w["core.bbpb_migrations"] += m.count(std::string(g) + "migrations");
    }
    w["mem.wpq_inserts"] += m.count("nvmm.wpq_inserts");
    w["mem.nvmm_media_writes"] += m.count("nvmm.media_writes");
    w["mem.nvmm_media_reads"] += m.count("nvmm.media_reads");
    w["mem.media_migrations"] += m.count("media.migrations");
}

struct Pass
{
    bool traced = false;
    /** Units are lifetimes rather than grid points. */
    bool lifetimes = false;
    /** Pool width actually used (jobs clamped to the unit count). */
    unsigned jobs = 1;
    /** speedProbeS() just before plus just after an untraced pass. */
    double probe_s = 0.0;
    Stamp wall;
    Stamp pool;
    std::vector<JobTiming> timing;
    std::vector<UnitRecord> units;
    /** Main-thread calls outside the pool (the lifetime set-up). */
    std::vector<Span> main_calls;
    WorkCounts work = emptyWork();
    /** Simulated ops (grids) or lifetime rounds (crash_lifetimes). */
    std::uint64_t work_units = 0;
};

/** Index of the calling thread among the current pass's pool workers. */
std::atomic<unsigned> gPassGeneration{0};
std::atomic<unsigned> gNextWorker{0};

void
beginPoolPass()
{
    gNextWorker.store(0);
    gPassGeneration.fetch_add(1);
}

unsigned
workerIndex()
{
    thread_local unsigned generation = ~0u;
    thread_local unsigned index = 0;
    unsigned g = gPassGeneration.load();
    if (generation != g) {
        generation = g;
        index = gNextWorker.fetch_add(1);
    }
    return index;
}

struct PointOutput
{
    MetricSnapshot metrics;
    Tick exec_ticks = 0;
    std::uint64_t nvmm_writes = 0; ///< System::effectiveNvmmWrites()
    std::uint64_t image_fingerprint = 0;
};

/** One grid point: exactly runExperiment()'s four calls, each timed. */
PointOutput
runPoint(const GridPoint &pt, JobTiming &t)
{
    PointOutput out;
    t.ctor.start = nowS();
    System sys(pt.cfg);
    t.ctor.end = t.install.start = nowS();
    auto wl = makeWorkload(pt.workload, pt.params);
    wl->install(sys);
    t.install.end = t.run.start = nowS();
    sys.run();
    t.run.end = t.snapshot.start = nowS();
    out.metrics = sys.snapshotMetrics();
    t.snapshot.end = nowS();
    out.exec_ticks = sys.executionTime();
    out.nvmm_writes = sys.effectiveNvmmWrites();
    out.image_fingerprint = sys.image().fingerprint();
    return out;
}

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

Pass
runGridPass(const std::vector<GridPoint> &grid, unsigned jobs)
{
    const std::size_t n = grid.size();
    Pass p;
    p.jobs = std::min<unsigned>(resolveJobs(jobs), n);
    p.timing.resize(n);
    p.units.resize(n);
    std::vector<WorkCounts> work(n);
    beginPoolPass();
    p.wall.start = p.pool.start = nowS();
    runIndexedJobs(
        n,
        [&](std::size_t i) {
            JobTiming &t = p.timing[i];
            UnitRecord &u = p.units[i];
            t.worker = workerIndex();
            t.job.start = nowS();
            u.label = grid[i].label;
            try {
                PointOutput o = runPoint(grid[i], t);
                unsigned cores = grid[i].cfg.num_cores;
                u.fields = {
                    {"exec_ticks", std::uint64_t{o.exec_ticks}},
                    {"nvmm_writes_effective", o.nvmm_writes},
                    {"sim_ops", o.metrics.count("sim.ops")},
                    {"persist_rejections",
                     sumPerCore(o.metrics, "sb", "persist_rejections",
                                cores)},
                    {"image_fingerprint", hex64(o.image_fingerprint)},
                };
                addWork(work[i], o.metrics, cores);
            } catch (const std::exception &e) {
                u.failure = std::string("exception: ") + e.what();
            }
            t.job.end = nowS();
        },
        jobs);
    p.pool.end = p.wall.end = nowS();
    for (std::size_t i = 0; i < n; ++i) {
        for (const auto &kv : work[i])
            p.work[kv.first] += kv.second;
    }
    p.work_units = p.work["sim.ops"];
    return p;
}

Pass
runLifetimePass(const LifetimeSpec &spec, unsigned jobs)
{
    Pass p;
    p.lifetimes = true;
    p.wall.start = nowS();
    auto mainCall = [&](const char *name, const char *cat,
                        const std::string &detail, Stamp when) {
        p.main_calls.push_back({name, cat, detail, 0, when});
    };

    Stamp plan;
    plan.start = nowS();
    std::vector<LifetimeSample> samples = planLifetimeCampaign(spec);
    plan.end = nowS();
    mainCall("planLifetimeCampaign", "recover", "", plan);

    // runLifetimeSample builds its machines internally, so the set-up a
    // lifetime's round 0 performs is measured from outside on one
    // replica machine per (workload, mode) cell.
    std::vector<PersistMode> modes =
        spec.modes.empty() ? safePersistModes() : spec.modes;
    for (const std::string &name : spec.workloads) {
        for (PersistMode mode : modes) {
            SystemConfig cfg = spec.base;
            cfg.mode = mode;
            std::string cell = name + "/" + persistModeName(mode);
            Stamp ctor, install, snapshot;
            ctor.start = nowS();
            System sys(cfg);
            ctor.end = install.start = nowS();
            auto wl = makeWorkload(name, spec.params);
            wl->install(sys);
            install.end = snapshot.start = nowS();
            sys.snapshotMetrics();
            snapshot.end = nowS();
            mainCall("System::System", "api", cell, ctor);
            mainCall("Workload::install", "workloads", cell, install);
            mainCall("System::snapshotMetrics", "sim", cell, snapshot);
        }
    }

    const std::size_t n = samples.size();
    p.jobs = std::min<unsigned>(resolveJobs(jobs), n);
    p.timing.resize(n);
    p.units.resize(n);
    std::vector<LifetimeResult> results(n);
    beginPoolPass();
    p.pool.start = nowS();
    runIndexedJobs(
        n,
        [&](std::size_t i) {
            JobTiming &t = p.timing[i];
            t.worker = workerIndex();
            t.job.start = t.run.start = nowS();
            try {
                results[i] = runLifetimeSample(samples[i]);
            } catch (const std::exception &e) {
                p.units[i].failure = std::string("exception: ") + e.what();
            }
            t.run.end = t.job.end = nowS();
        },
        jobs, [&](std::size_t i) { return samples[i].reproLine(); });
    p.pool.end = nowS();

    for (std::size_t i = 0; i < n; ++i) {
        const LifetimeSample &s = samples[i];
        const LifetimeResult &r = results[i];
        UnitRecord &u = p.units[i];
        u.label = s.workload + "/" + persistModeName(s.cfg.mode) + "/" +
                  s.plan_name + "/" +
                  std::to_string(i % std::max(1u, spec.lifetimes));
        if (!u.failure.empty())
            continue;
        u.fields = {
            {"outcome", std::string(lifetimeOutcomeName(r.outcome))},
            {"image_fingerprint", hex64(r.image_fingerprint)},
        };
        if (r.outcome == LifetimeOutcome::OracleViolation) {
            const LifetimeRound *bad = r.firstViolation();
            u.failure = "oracle violation: " +
                        (bad ? bad->detail : std::string("?")) +
                        " (repro: " + r.reproLine() + ")";
        }
        if (r.outcome == LifetimeOutcome::DegradedRepaired)
            ++p.work["recover.degraded"];
        for (const LifetimeRound &round : r.round_log) {
            p.work["recover.repairs"] += round.repairs;
            p.work["recover.dropped"] += round.dropped;
        }
        p.work_units += r.round_log.size();
    }
    p.wall.end = nowS();
    return p;
}

/** Defeats dead-code elimination of the probe loop. */
volatile std::uint64_t gProbeSink = 0;

/**
 * Host-speed probe: a fixed integer-hash loop of about 23 ms that shares
 * no code or data with the simulator. A shared host can run 10-40 %
 * slower for minutes at a time, longer than a whole run. The probe slows
 * with it, so run.py scales each untraced pass by the probe's reference
 * time over its measured time.
 */
double
speedProbeS()
{
    const double t0 = nowS();
    std::uint64_t h = 1469598103934665603ull;
    for (std::uint64_t k = 0; k < 4000000; ++k) {
        h ^= k;
        h *= 1099511628211ull;
        h += h >> 29;
        if (h & 1)
            h ^= 0x9e3779b97f4a7c15ull;
    }
    gProbeSink = h;
    return nowS() - t0;
}

// --- aggregation -------------------------------------------------------------

/** Host-time sums over one pass. */
struct PassSums
{
    double ctor_s = 0.0;
    double install_s = 0.0;
    double run_s = 0.0;
    double snapshot_s = 0.0;
    double plan_s = 0.0;

    double setup_s() const { return plan_s + ctor_s + install_s; }
};

PassSums
sumPass(const Pass &p)
{
    PassSums s;
    for (const JobTiming &t : p.timing) {
        s.ctor_s += t.ctor.dur();
        s.install_s += t.install.dur();
        s.run_s += t.run.dur();
        s.snapshot_s += t.snapshot.dur();
    }
    for (const Span &c : p.main_calls) {
        if (c.name == "System::System")
            s.ctor_s += c.when.dur();
        else if (c.name == "Workload::install")
            s.install_s += c.when.dur();
        else if (c.name == "System::snapshotMetrics")
            s.snapshot_s += c.when.dur();
        else if (c.name == "planLifetimeCampaign")
            s.plan_s += c.when.dur();
    }
    return s;
}

/** Per-layer span metrics of one traced pass. */
std::map<std::string, double>
spanMetrics(const Pass &p)
{
    PassSums s = sumPass(p);
    std::vector<double> job_s;
    double busy = 0.0;
    std::map<unsigned, double> last_end; // worker -> its last job's end
    for (const JobTiming &t : p.timing) {
        job_s.push_back(t.job.dur());
        busy += t.job.dur();
        double &end = last_end[t.worker];
        end = std::max(end, t.job.end);
    }
    double first_idle = p.pool.end;
    for (const auto &kv : last_end)
        first_idle = std::min(first_idle, kv.second);
    std::map<std::string, double> m = {
        {"api.system_ctor_s", s.ctor_s},
        {"workloads.install_s", s.install_s},
        {"api.run_s", s.run_s},
        {"sim.snapshot_s", s.snapshot_s},
        {"api.pool_busy_frac", busy / (p.jobs * p.pool.dur())},
        {"api.pool_tail_s", p.pool.end - first_idle},
        {"api.job_s.p50", percentile(job_s, 0.5)},
        {"api.job_s.p90", percentile(job_s, 0.9)},
    };
    if (p.lifetimes) {
        // A lifetime job is one runLifetimeSample span.
        m["recover.sample_s.p50"] = m["api.job_s.p50"];
        m["recover.sample_s.p90"] = m["api.job_s.p90"];
    }
    return m;
}

/** Every span of a traced pass, for the Chrome trace. */
void
collectSpans(const Pass &p, unsigned index, std::vector<Span> &out)
{
    out.push_back({"pass " + std::to_string(index), "hostbench", "", 0,
                   p.wall});
    for (const Span &c : p.main_calls)
        out.push_back(c);
    for (std::size_t i = 0; i < p.timing.size(); ++i) {
        const JobTiming &t = p.timing[i];
        const std::string &label = p.units[i].label;
        unsigned track = 1 + t.worker;
        out.push_back({"job", "api", label, track, t.job});
        if (p.lifetimes) {
            out.push_back({"runLifetimeSample", "recover", label, track,
                           t.run});
            continue;
        }
        out.push_back({"System::System", "api", label, track, t.ctor});
        out.push_back(
            {"Workload::install", "workloads", label, track, t.install});
        out.push_back({"System::run", "api", label, track, t.run});
        out.push_back(
            {"System::snapshotMetrics", "sim", label, track, t.snapshot});
    }
}

// --- layer drivers -----------------------------------------------------------

constexpr unsigned kDriverBatches = 5;
constexpr std::uint64_t kDriverSeed = 0x5eed;

/** Times a layer driver's batches; each batch times its own calls. */
class DriverTimer
{
  public:
    DriverTimer(const char *name, std::vector<Span> &trace)
        : _name(name), _trace(trace)
    {
    }

    void start() { _start = nowS(); }

    /** Close the current batch, which made @p calls calls. */
    void
    stop(std::uint64_t calls)
    {
        Stamp when{_start, nowS()};
        _ns.push_back(when.dur() * 1e9 / static_cast<double>(calls));
        _trace.push_back({_name, "drivers",
                          "batch " + std::to_string(_ns.size()), 0, when});
    }

    /** Median ns per call over the batches. */
    double result() const { return median(_ns); }

  private:
    const char *_name;
    std::vector<Span> &_trace;
    double _start = 0.0;
    std::vector<double> _ns;
};

[[noreturn]] void
driverStuck(const char *name)
{
    fatal("layer driver %s: event queue ran dry while blocked", name);
}

/** Self-rescheduling event: keeps a small, simulator-like heap busy. */
struct ChainEvent
{
    EventQueue *eq;
    std::uint64_t *left;
    unsigned lane;

    void
    operator()() const
    {
        if (*left == 0)
            return;
        --*left;
        eq->scheduleIn(1 + (lane * 7 + *left) % 97, *this);
    }
};

double
eventQueueNs(std::uint64_t n, std::vector<Span> &trace)
{
    DriverTimer t("sim.eq_ns", trace);
    for (unsigned b = 0; b < kDriverBatches; ++b) {
        EventQueue eq;
        std::uint64_t left = n;
        t.start();
        for (unsigned lane = 0; lane < 64; ++lane)
            eq.scheduleIn(lane, ChainEvent{&eq, &left, lane});
        eq.run();
        t.stop(eq.executed());
    }
    return t.result();
}

double
fiberSwitchNs(std::uint64_t n, std::vector<Span> &trace)
{
    DriverTimer t("sim.fiber_switch_ns", trace);
    for (unsigned b = 0; b < kDriverBatches; ++b) {
        Fiber f([n]() {
            for (std::uint64_t i = 0; i < n; ++i)
                Fiber::yield();
        });
        t.start();
        for (std::uint64_t i = 0; i < n; ++i)
            f.resume();
        t.stop(n);
        f.resume(); // let the body return
    }
    return t.result();
}

/** Random block addresses in [base, base + blocks * kBlockSize). */
std::vector<Addr>
randomBlocks(Addr base, std::uint64_t blocks, std::uint64_t n)
{
    Rng rng(kDriverSeed);
    std::vector<Addr> out(n);
    for (Addr &a : out)
        a = base + rng.below(blocks) * kBlockSize;
    return out;
}

/** CacheHierarchy::load on an L1-resident set and on 4x the LLC. */
std::pair<double, double>
cacheLoadNs(std::uint64_t n, std::vector<Span> &trace)
{
    SystemConfig cfg = benchConfig(PersistMode::BbbMemSide);
    System sys(cfg);
    CacheHierarchy &hier = sys.hierarchy();
    Addr base = sys.addrMap().nvmmBase();
    std::uint64_t sink = 0;

    std::vector<Addr> hot = randomBlocks(base, 256, n);
    for (std::uint64_t i = 0; i < 256; ++i)
        hier.load(0, base + i * kBlockSize, 8, &sink);
    DriverTimer hit("cache.load_hit_ns", trace);
    for (unsigned b = 0; b < kDriverBatches; ++b) {
        hit.start();
        for (Addr a : hot) {
            std::uint64_t v = 0;
            hier.load(0, a, 8, &v);
            sink += v;
        }
        hit.stop(hot.size());
    }

    std::vector<Addr> cold =
        randomBlocks(base, 4 * cfg.llc.size_bytes / kBlockSize, n / 4);
    DriverTimer miss("cache.load_miss_ns", trace);
    for (unsigned b = 0; b < kDriverBatches; ++b) {
        miss.start();
        for (Addr a : cold) {
            std::uint64_t v = 0;
            hier.load(0, a, 8, &v);
            sink += v;
        }
        miss.stop(cold.size());
    }
    if (sink != 0)
        fatal("cache load driver read non-zero data from fresh memory");
    return {hit.result(), miss.result()};
}

/** CacheHierarchy::store of persistent blocks under bbb_mem. */
double
cacheStorePersistNs(std::uint64_t n, std::vector<Span> &trace)
{
    System sys(benchConfig(PersistMode::BbbMemSide));
    CacheHierarchy &hier = sys.hierarchy();
    EventQueue &eq = sys.eventQueue();
    Addr base = sys.addrMap().persistBase();
    DriverTimer t("cache.store_persist_ns", trace);
    for (unsigned b = 0; b < kDriverBatches; ++b) {
        t.start();
        for (std::uint64_t i = 0; i < n; ++i) {
            Addr a = base + (i % 1024) * kBlockSize;
            while (hier.store(0, a, 8, &i).status ==
                   StoreStatus::RetryPersist) {
                if (!eq.step())
                    driverStuck("cache.store_persist_ns");
            }
        }
        eq.run();
        t.stop(n);
    }
    return t.result();
}

/** StoreBuffer::push plus its drain into the L1D. */
double
storeBufferNs(std::uint64_t n, std::vector<Span> &trace)
{
    SystemConfig cfg = benchConfig(PersistMode::BbbMemSide);
    System sys(cfg);
    EventQueue &eq = sys.eventQueue();
    StatRegistry stats;
    StoreBuffer sb(0, cfg, eq, sys.hierarchy(), stats);
    Addr base = sys.addrMap().dramBase();
    DriverTimer t("cpu.sb_push_retire_ns", trace);
    for (unsigned b = 0; b < kDriverBatches; ++b) {
        t.start();
        for (std::uint64_t i = 0; i < n; ++i) {
            while (sb.full()) {
                if (!eq.step())
                    driverStuck("cpu.sb_push_retire_ns");
            }
            sb.push(base + (i % 512) * kBlockSize, 8, i, false);
        }
        eq.run();
        t.stop(n);
    }
    return t.result();
}

/** MemSideBbpb::persistStore plus its drain into the WPQ. */
double
bbpbPersistNs(std::uint64_t n, std::vector<Span> &trace)
{
    SystemConfig cfg = benchConfig(PersistMode::BbbMemSide);
    EventQueue eq;
    BackingStore store;
    DirectMedia media(store);
    StatRegistry stats;
    MemCtrl nvmm("nvmm", cfg.nvmm, eq, media, stats);
    MemSideBbpb bbpb(cfg, eq, nvmm, stats);
    Addr base = AddrMap::fromConfig(cfg).persistBase();
    BlockData data;
    DriverTimer t("core.bbpb_persist_ns", trace);
    for (unsigned b = 0; b < kDriverBatches; ++b) {
        t.start();
        for (std::uint64_t i = 0; i < n; ++i) {
            Addr block = base + (i % 4096) * kBlockSize;
            while (!bbpb.canAcceptPersist(0, block)) {
                if (!eq.step())
                    driverStuck("core.bbpb_persist_ns");
            }
            bbpb.persistStore(0, block, 8, data);
        }
        eq.run();
        t.stop(n);
    }
    return t.result();
}

/** MemCtrl::enqueueWrite plus retirement through @p media. */
double
memCtrlWriteNs(const char *name, MediaBackend &media, std::uint64_t n,
               std::vector<Span> &trace)
{
    SystemConfig cfg = benchConfig(PersistMode::BbbMemSide);
    EventQueue eq;
    StatRegistry stats;
    MemCtrl nvmm("nvmm", cfg.nvmm, eq, media, stats);
    Addr base = AddrMap::fromConfig(cfg).persistBase();
    BlockData data;
    DriverTimer t(name, trace);
    for (unsigned b = 0; b < kDriverBatches; ++b) {
        t.start();
        for (std::uint64_t i = 0; i < n; ++i) {
            Addr block = base + (i % 4096) * kBlockSize;
            while (!nvmm.enqueueWrite(block, data)) {
                if (!eq.step())
                    driverStuck(name);
            }
        }
        eq.run();
        t.stop(n);
    }
    return t.result();
}

/** BackingStore block writes (first touch, then again), read64, and
 *  whole-image clone/fingerprint. */
std::map<std::string, double>
backingStoreNs(std::uint64_t n, std::vector<Span> &trace)
{
    std::vector<Addr> blocks = randomBlocks(0, (1ull << 30) / kBlockSize, n);
    BlockData data;
    data.bytes.fill(0xa5);
    DriverTimer cold("mem.store_write_cold_ns", trace);
    DriverTimer warm("mem.store_write_warm_ns", trace);
    BackingStore image;
    for (unsigned b = 0; b < kDriverBatches; ++b) {
        BackingStore store;
        cold.start();
        for (Addr a : blocks)
            store.writeBlock(a, data.bytes.data());
        cold.stop(blocks.size());
        warm.start();
        for (Addr a : blocks)
            store.writeBlock(a, data.bytes.data());
        warm.stop(blocks.size());
        image = std::move(store);
    }

    Rng rng(kDriverSeed + 1);
    std::vector<Addr> words(16 * n);
    for (Addr &a : words)
        a = blocks[rng.below(blocks.size())] + 8 * rng.below(8);
    DriverTimer read("mem.store_read64_ns", trace);
    std::uint64_t sink = 0;
    for (unsigned b = 0; b < kDriverBatches; ++b) {
        read.start();
        for (Addr a : words)
            sink += image.read64(a);
        read.stop(words.size());
    }
    if (sink == 0)
        fatal("read64 driver read back only zeroes");

    DriverTimer clone("mem.image_clone_ns_per_page", trace);
    DriverTimer fingerprint("mem.image_fingerprint_ns_per_page", trace);
    for (unsigned b = 0; b < kDriverBatches; ++b) {
        clone.start();
        BackingStore copy = image.clone();
        clone.stop(image.pagesTouched());
        fingerprint.start();
        std::uint64_t fp = copy.fingerprint();
        fingerprint.stop(copy.pagesTouched());
        if (fp != image.fingerprint())
            fatal("cloned image fingerprints differently");
    }
    return {
        {"mem.store_write_cold_ns", cold.result()},
        {"mem.store_write_warm_ns", warm.result()},
        {"mem.store_read64_ns", read.result()},
        {"mem.image_clone_ns_per_page", clone.result()},
        {"mem.image_fingerprint_ns_per_page", fingerprint.result()},
    };
}

/**
 * One scripted crash–recover–resume round per lifetime workload, timing
 * System::crashNow, RecoveryManager::recover and reseedSystem. Each
 * metric is the median over the batches of the sum over workloads.
 */
std::map<std::string, double>
scriptedRoundS(const LifetimeSpec &spec, std::vector<Span> &trace)
{
    std::vector<double> crash_s, recover_s, reseed_s;
    WorkloadParams params = spec.params;
    params.seed = kDriverSeed;
    SystemConfig cfg = spec.base;
    cfg.seed = kDriverSeed;
    Tick crash_at = (spec.min_crash_tick + spec.max_crash_tick) / 2;
    for (unsigned b = 0; b < kDriverBatches; ++b) {
        double crash = 0.0, recover = 0.0, reseed = 0.0;
        for (const std::string &name : spec.workloads) {
            auto wl = makeWorkload(name, params);
            System first(cfg);
            wl->install(first);
            first.runUntil(crash_at);
            Stamp c;
            c.start = nowS();
            first.crashNow();
            c.end = nowS();

            BackingStore raw = first.image().clone();
            RecoveryManager mgr(raw, first.addrMap(), cfg.num_cores);
            Stamp r;
            r.start = nowS();
            RecoverOutcome out = mgr.recover(*wl);
            r.end = nowS();
            if (!out.resumable())
                fatal("scripted round: %s image unrecoverable: %s",
                      name.c_str(), out.detail.c_str());

            System next(cfg);
            Stamp s;
            s.start = nowS();
            reseedSystem(next, raw, out.frontiers);
            s.end = nowS();
            wl->resume(next);
            next.run();

            crash += c.dur();
            recover += r.dur();
            reseed += s.dur();
            trace.push_back({"System::crashNow", "core", name, 0, c});
            trace.push_back(
                {"RecoveryManager::recover", "recover", name, 0, r});
            trace.push_back({"reseedSystem", "api", name, 0, s});
        }
        crash_s.push_back(crash);
        recover_s.push_back(recover);
        reseed_s.push_back(reseed);
    }
    return {
        {"core.crash_s", median(crash_s)},
        {"recover.recover_s", median(recover_s)},
        {"api.reseed_s", median(reseed_s)},
    };
}

/** Every layer driver, at fixed seeds and @p scale's batch sizes. */
std::map<std::string, double>
runLayerDrivers(const Scale &scale, std::vector<Span> &trace)
{
    const std::uint64_t k = scale.driver_div;
    std::map<std::string, double> m;
    m["sim.eq_ns"] = eventQueueNs(400000 / k, trace);
    m["sim.fiber_switch_ns"] = fiberSwitchNs(400000 / k, trace);
    auto [hit, miss] = cacheLoadNs(400000 / k, trace);
    m["cache.load_hit_ns"] = hit;
    m["cache.load_miss_ns"] = miss;
    m["cache.store_persist_ns"] = cacheStorePersistNs(50000 / k, trace);
    m["cpu.sb_push_retire_ns"] = storeBufferNs(200000 / k, trace);
    m["core.bbpb_persist_ns"] = bbpbPersistNs(100000 / k, trace);
    {
        BackingStore store;
        DirectMedia direct(store);
        m["mem.wpq_write_ns"] =
            memCtrlWriteNs("mem.wpq_write_ns", direct, 100000 / k, trace);
    }
    {
        SystemConfig cfg = benchConfig(PersistMode::BbbMemSide);
        BackingStore store;
        FtlMedia ftl(store, cfg.media, cfg.nvmm.channels);
        m["mem.ftl_write_ns"] =
            memCtrlWriteNs("mem.ftl_write_ns", ftl, 50000 / k, trace);
    }
    for (const auto &kv : backingStoreNs(8192 / k, trace))
        m[kv.first] = kv.second;
    for (const auto &kv : scriptedRoundS(crashLifetimesSpec(scale, 1), trace))
        m[kv.first] = kv.second;
    return m;
}

// --- output --------------------------------------------------------------

void
writeTrace(const std::string &path, const std::string &workload,
           const std::vector<Span> &spans, unsigned workers)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot write trace file '%s'", path.c_str());
    JsonWriter w(os);
    w.beginObject();
    w.key("traceEvents");
    w.beginArray();
    auto meta = [&](const char *what, unsigned tid, const std::string &name) {
        w.beginObject();
        w.member("name", what);
        w.member("ph", "M");
        w.member("pid", 1u);
        w.member("tid", tid);
        w.key("args");
        w.beginObject();
        w.member("name", name);
        w.endObject();
        w.endObject();
    };
    meta("process_name", 0, "hostbench " + workload);
    meta("thread_name", 0, "drivers");
    for (unsigned wk = 0; wk < workers; ++wk)
        meta("thread_name", 1 + wk, "worker " + std::to_string(wk));
    for (const Span &s : spans) {
        w.beginObject();
        w.member("name", s.name);
        w.member("cat", s.cat);
        w.member("ph", "X");
        w.member("ts", s.when.start * 1e6);
        w.member("dur", s.when.dur() * 1e6);
        w.member("pid", 1u);
        w.member("tid", s.track);
        if (!s.detail.empty()) {
            w.key("args");
            w.beginObject();
            w.member("detail", s.detail);
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();
    w.member("displayTimeUnit", "ms");
    w.endObject();
    os << '\n';
    if (!os)
        fatal("failed writing trace file '%s'", path.c_str());
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // Linux: KiB
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

// --- command line --------------------------------------------------------

struct WorkloadDef
{
    const char *name;
    /** Pool width; 0 means min(3, host threads). */
    unsigned jobs;
};

const WorkloadDef kWorkloads[] = {
    {"fig7_serial", 1},
    {"fig7_parallel", 0},
    {"persist_storm", 1},
    {"crash_lifetimes", 1},
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: hostbench --workload NAME [--seed S] "
                 "[--scale bench|smoke]\n"
                 "                 [--passes N | --seconds T] "
                 "[--trace PATH]\n"
                 "       hostbench --self-test\n"
                 "workloads: fig7_serial fig7_parallel persist_storm "
                 "crash_lifetimes\n");
    std::exit(2);
}

std::uint64_t
parseUint(const char *flag, const std::string &text)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || text[0] == '-') {
        std::fprintf(stderr, "hostbench: %s needs a whole number, got '%s'\n",
                     flag, text.c_str());
        std::exit(2);
    }
    return v;
}

/**
 * Proves a benchmark grid point reproduces the library's reference path:
 * its metric tree must equal runExperiment()'s byte for byte (canonical
 * mode, so host-time leaves are zeroed) on one point per mode.
 */
int
selfTest()
{
    setenv("BBB_REPORT_CANONICAL", "1", 1);
    const Scale &smoke = kScales[1];
    std::vector<GridPoint> points;
    for (const GridPoint &g : fig7Grid(smoke, 1)) {
        if (g.label == "hashmap/eadr" || g.label == "rtree/bbb-mem-side/bbpb32")
            points.push_back(g);
    }
    for (const GridPoint &g : persistStormGrid(smoke, 1)) {
        if (g.label == "swapC/bbb-proc-side/bbpb32")
            points.push_back(g);
    }
    bool ok = points.size() == 3;
    for (const GridPoint &pt : points) {
        JobTiming t;
        std::string mine = runPoint(pt, t).metrics.toJson();
        std::string ref =
            runExperiment(pt.cfg, pt.workload, pt.params).metrics.toJson();
        bool same = mine == ref;
        ok = ok && same;
        std::printf("%-4s %s (%zu bytes)\n", same ? "ok" : "FAIL",
                    pt.label.c_str(), mine.size());
    }
    std::printf("self-test %s\n", ok ? "passed" : "FAILED");
    return ok ? 0 : 1;
}

void
writeFields(JsonWriter &w, const UnitRecord &u)
{
    for (const auto &[name, value] : u.fields) {
        w.key(name);
        if (const auto *n = std::get_if<std::uint64_t>(&value))
            w.value(*n);
        else
            w.value(std::get<std::string>(value));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string trace_path;
    std::string scale_name = "bench";
    std::uint64_t seed = 1;
    std::uint64_t passes = 0;
    double seconds = 0.0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                usage();
            return argv[i];
        };
        if (arg == "--self-test") {
            return selfTest();
        } else if (arg == "--workload") {
            workload = next();
        } else if (arg == "--seed") {
            seed = parseUint("--seed", next());
        } else if (arg == "--scale") {
            scale_name = next();
        } else if (arg == "--passes") {
            passes = parseUint("--passes", next());
        } else if (arg == "--seconds") {
            seconds = static_cast<double>(parseUint("--seconds", next()));
        } else if (arg == "--trace") {
            trace_path = next();
        } else {
            usage();
        }
    }
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &d : kWorkloads) {
        if (workload == d.name)
            def = &d;
    }
    const Scale *scale = nullptr;
    for (const Scale &s : kScales) {
        if (scale_name == s.name)
            scale = &s;
    }
    if (!def || !scale)
        usage();
    const bool traced = !trace_path.empty();
    const unsigned jobs =
        def->jobs ? def->jobs : std::min(3u, resolveJobs(0));
    if (passes == 0 && seconds <= 0.0)
        passes = 1;

    const bool lifetimes = workload == "crash_lifetimes";
    std::vector<GridPoint> grid;
    LifetimeSpec spec = crashLifetimesSpec(*scale, seed);
    if (workload == "persist_storm")
        grid = persistStormGrid(*scale, seed);
    else if (!lifetimes)
        grid = fig7Grid(*scale, seed);
    auto runPass = [&](bool trace_pass) {
        Pass p = lifetimes ? runLifetimePass(spec, jobs)
                           : runGridPass(grid, jobs);
        p.traced = trace_pass;
        return p;
    };

    // Start-up: the layer drivers run first in a traced run, inside the
    // time budget.
    const double t0 = nowS();
    std::vector<Span> spans;
    std::map<std::string, double> drivers;
    if (traced)
        drivers = runLayerDrivers(*scale, spans);

    // An untraced pass, or with --trace an untraced/traced pair, per
    // step; --seconds stops before a step expected to overrun.
    std::vector<Pass> all;
    std::vector<double> step_s;
    for (std::uint64_t step = 0;; ++step) {
        if (passes ? step >= passes
                   : step > 0 &&
                         nowS() - t0 + median(step_s) > seconds)
            break;
        double s0 = nowS();
        double probe = speedProbeS();
        all.push_back(runPass(false));
        all.back().probe_s = probe + speedProbeS();
        if (traced)
            all.push_back(runPass(true));
        step_s.push_back(nowS() - s0);
    }

    // Passes must agree unit for unit: the first pass is what the golden
    // check sees, so any later difference is a failure of its own.
    struct Failure
    {
        std::uint64_t pass;
        std::string label;
        std::string why;
    };
    std::vector<Failure> failures;
    for (std::size_t pi = 0; pi < all.size(); ++pi) {
        for (std::size_t u = 0; u < all[pi].units.size(); ++u) {
            const UnitRecord &rec = all[pi].units[u];
            std::string why = rec.failure;
            if (why.empty() && rec.fields != all[0].units[u].fields)
                why = "simulated outputs differ from pass 0";
            if (!why.empty())
                failures.push_back({pi, rec.label, why});
        }
    }

    std::map<std::string, double> layers;
    if (traced) {
        std::vector<double> traced_wall, untraced_wall;
        std::map<std::string, std::vector<double>> per_pass;
        unsigned index = 0;
        for (const Pass &p : all) {
            if (!p.traced) {
                untraced_wall.push_back(p.wall.dur());
                continue;
            }
            traced_wall.push_back(p.wall.dur());
            for (const auto &kv : spanMetrics(p))
                per_pass[kv.first].push_back(kv.second);
            collectSpans(p, index++, spans);
        }
        for (const auto &kv : per_pass)
            layers[kv.first] = median(kv.second);
        layers["trace.overhead_frac"] =
            median(traced_wall) / median(untraced_wall) - 1.0;
        for (const auto &kv : drivers)
            layers[kv.first] = kv.second;
        writeTrace(trace_path, workload, spans, all.front().jobs);
    }

    JsonWriter w(std::cout);
    w.beginObject();
    w.member("schema", "bbb-hostbench-run");
    w.member("workload", workload);
    w.member("seed", seed);
    w.member("scale", scale_name);
    w.member("jobs", all.front().jobs);
    w.member("nproc", resolveJobs(0));
    w.member("compiler", compilerName());
    w.member("build_type", HOSTBENCH_BUILD_TYPE);
    w.member("work_unit", lifetimes ? "lifetime round" : "simulated op");
    w.key("passes");
    w.beginArray();
    for (const Pass &p : all) {
        PassSums s = sumPass(p);
        w.beginObject();
        w.member("traced", p.traced);
        w.member("wall_s", p.wall.dur());
        w.member("setup_s", s.setup_s());
        w.member("run_s", s.run_s);
        w.member("work_units", p.work_units);
        w.member("units", std::uint64_t{p.units.size()});
        w.member("probe_s", p.probe_s);
        w.endObject();
    }
    w.endArray();
    w.key("units");
    w.beginArray();
    for (const UnitRecord &u : all.front().units) {
        w.beginObject();
        w.member("label", u.label);
        writeFields(w, u);
        w.endObject();
    }
    w.endArray();
    w.key("failures");
    w.beginArray();
    for (const Failure &f : failures) {
        w.beginObject();
        w.member("pass", f.pass);
        w.member("label", f.label);
        w.member("why", f.why);
        w.endObject();
    }
    w.endArray();
    w.key("work");
    w.beginObject();
    for (const auto &kv : all.front().work)
        w.member(kv.first, kv.second);
    w.endObject();
    w.member("peak_rss_mb", peakRssMb());
    if (traced) {
        w.key("per_layer");
        w.beginObject();
        for (const auto &kv : layers)
            w.member(kv.first, kv.second);
        w.endObject();
        w.member("trace_file", trace_path);
    }
    w.endObject();
    std::cout << std::endl;
    return 0;
}
