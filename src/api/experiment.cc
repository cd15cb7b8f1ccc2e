#include "api/experiment.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "api/system.hh"
#include "sim/logging.hh"

namespace bbb
{

SystemConfig
paperConfig(PersistMode mode, unsigned bbpb_entries)
{
    SystemConfig cfg; // defaults are Table III
    cfg.mode = mode;
    cfg.bbpb.entries = bbpb_entries;
    return cfg;
}

SystemConfig
benchConfig(PersistMode mode, unsigned bbpb_entries)
{
    // The paper's Table III machine. The structures in benchParams() are
    // sized well past the LLC (as the paper's 1M-node structures are), so
    // the coalescing comparison between eADR's cache residency and the
    // bbPB is fair; see EXPERIMENTS.md.
    SystemConfig cfg = paperConfig(mode, bbpb_entries);
    cfg.dram.size_bytes = 1_GiB;
    cfg.nvmm.size_bytes = 1_GiB;
    return cfg;
}

WorkloadParams
benchParams()
{
    WorkloadParams p;
    p.ops_per_thread = 4000;
    p.initial_elements = 100000;
    p.array_elements = 1ull << 20;
    return p;
}

std::string
ExperimentResult::csvHeader()
{
    return "workload,mode,bbpb_entries,exec_ns,nvmm_writes,"
           "bbpb_rejections,bbpb_drains,bbpb_forced_drains,"
           "bbpb_coalesces,bbpb_migrations,skipped_writebacks,stores,"
           "persisting_stores,stall_ns";
}

std::string
ExperimentResult::toCsv() const
{
    std::ostringstream os;
    os << workload << ',' << persistModeName(mode) << ',' << bbpb_entries
       << ',' << ticksToNs(exec_ticks) << ',' << nvmm_writes << ','
       << bbpb_rejections << ',' << bbpb_drains << ','
       << bbpb_forced_drains << ',' << bbpb_coalesces << ','
       << bbpb_migrations << ',' << skipped_writebacks << ',' << stores
       << ',' << persisting_stores << ',' << ticksToNs(stall_ticks);
    return os.str();
}

ExperimentResult
runExperiment(const SystemConfig &cfg, const std::string &workload,
              const WorkloadParams &params)
{
    System sys(cfg);
    auto wl = makeWorkload(workload, params);
    wl->install(sys);
    sys.run();

    ExperimentResult r;
    r.workload = workload;
    r.mode = cfg.mode;
    r.bbpb_entries = cfg.bbpb.entries;
    r.exec_ticks = sys.executionTime();
    r.nvmm_writes = sys.effectiveNvmmWrites();

    const std::string bbpb_group =
        cfg.mode == PersistMode::BbbProcSide ? "bbpb_proc" : "bbpb";
    auto &stats = sys.stats();
    r.bbpb_drains = stats.lookup(bbpb_group, "drains");
    r.bbpb_forced_drains = stats.lookup(bbpb_group, "forced_drains");
    r.bbpb_coalesces = stats.lookup(bbpb_group, "coalesces");
    r.bbpb_migrations = stats.lookup(bbpb_group, "migrations");
    r.skipped_writebacks = stats.lookup("hierarchy", "skipped_writebacks");
    r.stores = stats.lookup("hierarchy", "stores");
    r.persisting_stores = stats.lookup("hierarchy", "persisting_stores");

    for (CoreId c = 0; c < cfg.num_cores; ++c) {
        r.bbpb_rejections +=
            stats.lookup("sb" + std::to_string(c), "persist_rejections");
        r.stall_ticks +=
            stats.lookup("core" + std::to_string(c), "stall_ticks");
    }
    r.metrics = sys.snapshotMetrics();
    return r;
}

unsigned
resolveJobs(unsigned jobs)
{
    if (jobs)
        return jobs;
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

long
jobTimeoutSeconds()
{
    const char *env = std::getenv("BBB_JOB_TIMEOUT_S");
    if (!env || !*env)
        return 0;
    char *end = nullptr;
    long s = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || s < 0)
        fatal("BBB_JOB_TIMEOUT_S ('%s') is not a whole number of seconds",
              env);
    return s;
}

namespace
{

std::int64_t
steadySeconds()
{
    return std::chrono::duration_cast<std::chrono::seconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** What one worker is running right now, for the watchdog to inspect. */
struct alignas(64) WorkerLane
{
    static constexpr std::size_t kIdle = ~std::size_t{0};

    /** Claimed job index, kIdle between jobs. Written job-last. */
    std::atomic<std::size_t> job{kIdle};
    /** steadySeconds() at which the current job started. */
    std::atomic<std::int64_t> since{0};

    void
    begin(std::size_t i)
    {
        since.store(steadySeconds(), std::memory_order_relaxed);
        job.store(i, std::memory_order_release);
    }

    void end() { job.store(kIdle, std::memory_order_release); }
};

/**
 * Wall-clock watchdog over a set of worker lanes: while alive, any lane
 * whose job exceeds the timeout fail()s the process with the job's
 * repro line. A hung simulation cannot make progress or be recovered
 * in-process, so dying loudly with the replay command is strictly
 * better than wedging the campaign.
 */
class JobWatchdog
{
  public:
    JobWatchdog(std::vector<WorkerLane> &lanes, long timeout_s,
                const std::function<std::string(std::size_t)> &describe)
        : _lanes(lanes), _timeout_s(timeout_s), _describe(describe),
          _thread([this] { watch(); })
    {
    }

    ~JobWatchdog()
    {
        {
            std::lock_guard<std::mutex> lock(_mutex);
            _stop = true;
        }
        _cv.notify_all();
        _thread.join();
    }

  private:
    void
    watch()
    {
        std::unique_lock<std::mutex> lock(_mutex);
        while (!_stop) {
            _cv.wait_for(lock, std::chrono::milliseconds(200));
            if (_stop)
                return;
            std::int64_t now = steadySeconds();
            for (WorkerLane &lane : _lanes) {
                std::size_t i = lane.job.load(std::memory_order_acquire);
                if (i == WorkerLane::kIdle)
                    continue;
                std::int64_t ran =
                    now - lane.since.load(std::memory_order_relaxed);
                if (ran <= _timeout_s)
                    continue;
                std::string repro = _describe
                                        ? _describe(i)
                                        : "job index " + std::to_string(i);
                fatal("watchdog: job %zu still running after %lld s "
                      "(BBB_JOB_TIMEOUT_S=%ld); repro: %s",
                      i, static_cast<long long>(ran), _timeout_s,
                      repro.c_str());
            }
        }
    }

    std::vector<WorkerLane> &_lanes;
    long _timeout_s;
    const std::function<std::string(std::size_t)> &_describe;
    std::mutex _mutex;
    std::condition_variable _cv;
    bool _stop = false;
    std::thread _thread;
};

} // namespace

void
runIndexedJobs(std::size_t count,
               const std::function<void(std::size_t)> &fn, unsigned jobs,
               const std::function<std::string(std::size_t)> &describe)
{
    jobs = resolveJobs(jobs);
    if (jobs > count)
        jobs = static_cast<unsigned>(count);

    long timeout_s = jobTimeoutSeconds();

    if (jobs <= 1) {
        // Serial path: same watchdog contract, one lane.
        std::vector<WorkerLane> lanes(1);
        std::unique_ptr<JobWatchdog> dog;
        if (timeout_s > 0)
            dog = std::make_unique<JobWatchdog>(lanes, timeout_s, describe);
        for (std::size_t i = 0; i < count; ++i) {
            lanes[0].begin(i);
            fn(i);
            lanes[0].end();
        }
        return;
    }

    // Work-stealing by atomic ticket: each worker claims the next
    // unstarted index. The contract (header) requires job i to be
    // independent of which worker runs it, so the claim order cannot
    // change any result.
    std::atomic<std::size_t> next{0};
    std::mutex failure_mutex;
    std::exception_ptr failure;
    std::vector<WorkerLane> lanes(jobs);

    auto worker = [&](WorkerLane &lane) {
        for (;;) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            lane.begin(i);
            try {
                fn(i);
            } catch (...) {
                lane.end();
                std::lock_guard<std::mutex> lock(failure_mutex);
                if (!failure)
                    failure = std::current_exception();
                return;
            }
            lane.end();
        }
    };

    std::unique_ptr<JobWatchdog> dog;
    if (timeout_s > 0)
        dog = std::make_unique<JobWatchdog>(lanes, timeout_s, describe);

    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t)
        pool.emplace_back(worker, std::ref(lanes[t]));
    for (std::thread &t : pool)
        t.join();
    dog.reset();
    if (failure)
        std::rethrow_exception(failure);
}

std::vector<std::size_t>
firstEqualSpecs(const std::vector<ExperimentSpec> &specs)
{
    std::vector<std::size_t> first(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        first[i] = i;
        for (std::size_t j = 0; j < i; ++j) {
            if (first[j] == j && specs[j] == specs[i]) {
                first[i] = j;
                break;
            }
        }
    }
    return first;
}

std::vector<ExperimentResult>
runExperiments(const std::vector<ExperimentSpec> &specs, unsigned jobs)
{
    // Every distinct point owns its System/event queue/RNG and writes
    // only into its pre-sized slot, so results come back in submission
    // order and bit-identical at any jobs width. Repeats wait for the
    // pool to drain, then copy their first occurrence.
    std::vector<std::size_t> first = firstEqualSpecs(specs);
    std::vector<ExperimentResult> results(specs.size());
    runIndexedJobs(
        specs.size(),
        [&](std::size_t i) {
            if (first[i] == i)
                results[i] = runExperiment(specs[i].cfg, specs[i].workload,
                                           specs[i].params);
        },
        jobs);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (first[i] != i)
            results[i] = results[first[i]];
    }
    return results;
}

} // namespace bbb
