/**
 * @file
 * BenchReport: the one machine-readable artifact every bench and
 * campaign binary emits behind `--json <path>`.
 *
 * The document is schema-versioned ("bbb-bench-report", version 1) and
 * deterministic: config entries and metric trees serialize in sorted
 * order through the same JsonWriter as MetricSnapshot, so two runs of
 * the same binary at any `--jobs` width produce byte-identical files —
 * with one deliberate exception, the "host" section (wall-clock seconds
 * and the jobs width), which describes the run rather than the result.
 * Setting BBB_REPORT_CANONICAL=1 zeroes that section too, which is how
 * the determinism tests compare whole files; tools/compare_bench_json.py
 * likewise ignores it.
 *
 * Layout (fixed key order):
 *
 *   {
 *     "schema": "bbb-bench-report",
 *     "schema_version": 1,
 *     "bench": "<binary name>",
 *     "config": { "<key>": "<string>", ... },          // sorted keys
 *     "paper": { <MetricSnapshot> },    // published reference values
 *     "measured": { <MetricSnapshot> }, // headline measured values
 *     "experiments": [ { "label": "...", "metrics": { ... } }, ... ],
 *     "host": { "jobs": N, "wall_clock_s": S, "sim_ops": O,
 *               "events_fired": E, "events_per_sec": R, "ns_per_op": P }
 *   }
 */

#ifndef BBB_API_REPORT_HH
#define BBB_API_REPORT_HH

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/stats.hh"

namespace bbb
{

/** One structured report document (see file comment for the layout). */
class BenchReport
{
  public:
    static constexpr const char *kSchema = "bbb-bench-report";
    static constexpr unsigned kSchemaVersion = 1;

    explicit BenchReport(std::string bench_name)
        : _bench(std::move(bench_name))
    {
    }

    const std::string &bench() const { return _bench; }

    /** --- config: the knobs this run was shaped by ------------------- */

    void setConfig(const std::string &key, const std::string &value);
    /** Without this overload a string literal would bind to bool. */
    void setConfig(const std::string &key, const char *value);
    void setConfig(const std::string &key, std::uint64_t value);
    void setConfig(const std::string &key, bool value);

    /** --- paper / measured: headline scalar sections ------------------ */

    /** Published reference value (dimensionless or unit-suffixed name). */
    void paperRef(const std::string &name, double v);

    MetricSnapshot &measured() { return _measured; }
    const MetricSnapshot &measured() const { return _measured; }

    /** --- experiments: one labelled metric tree per simulated point -- */

    void addExperiment(const std::string &label,
                       const MetricSnapshot &metrics);

    std::size_t experiments() const { return _experiments.size(); }

    /** --- host: the only non-deterministic section -------------------- */

    void
    noteRun(double wall_clock_s, unsigned jobs)
    {
        _wall_clock_s += wall_clock_s;
        _jobs = jobs;
    }

    /** Accumulate simulated work for the host-rate summary: @p ops
     *  memory operations and @p events fired across the run's systems.
     *  events/sec and ns/op are derived from the noteRun wall clock. */
    void
    noteSim(std::uint64_t ops, std::uint64_t events)
    {
        _sim_ops += ops;
        _events_fired += events;
    }

    /** --- emission ---------------------------------------------------- */

    void writeJson(std::ostream &os) const;
    std::string toJson() const;

    /**
     * Write the document to @p path and print a one-line note on
     * stdout. fatal()s if the file cannot be written.
     */
    void writeFile(const std::string &path) const;

    /**
     * The shared `--json` tail every binary calls: no-op when @p path
     * is empty, else writeFile(path).
     */
    void
    emitIfRequested(const std::string &path) const
    {
        if (!path.empty())
            writeFile(path);
    }

  private:
    std::string _bench;
    std::map<std::string, std::string> _config;
    MetricSnapshot _paper;
    MetricSnapshot _measured;
    struct Entry
    {
        std::string label;
        MetricSnapshot metrics;
    };
    std::vector<Entry> _experiments;
    double _wall_clock_s = 0.0;
    unsigned _jobs = 0;
    std::uint64_t _sim_ops = 0;
    std::uint64_t _events_fired = 0;
};

/**
 * Seconds of wall clock spent in @p fn (steady clock) — the helper
 * benches use to fill BenchReport::noteRun around a grid or campaign.
 */
double timedSeconds(const std::function<void()> &fn);

/**
 * Whether BBB_REPORT_CANONICAL is set: the host section is zeroed, and
 * benches whose measured values are host timings (bench_micro) omit
 * them so the whole document is byte-stable.
 */
bool reportCanonicalMode();

} // namespace bbb

#endif // BBB_API_REPORT_HH
