/**
 * @file
 * BenchReport: the one machine-readable artifact every bench and
 * campaign binary emits behind `--json <path>`.
 *
 * The document is schema-versioned ("bbb-bench-report", version 2) and
 * a pure function of the binary's inputs: config entries and metric
 * trees serialize in sorted order through the same JsonWriter as
 * MetricSnapshot, and nothing in it depends on the host, so two runs of
 * the same binary at any `--jobs` width produce byte-identical files.
 * Host performance is measured from outside the library (benchmark/).
 *
 * Layout (fixed key order):
 *
 *   {
 *     "schema": "bbb-bench-report",
 *     "schema_version": 2,
 *     "bench": "<binary name>",
 *     "config": { "<key>": "<string>", ... },          // sorted keys
 *     "paper": { <MetricSnapshot> },    // published reference values
 *     "measured": { <MetricSnapshot> }, // headline measured values
 *     "experiments": [ { "label": "...", "metrics": { ... } }, ... ]
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
    static constexpr unsigned kSchemaVersion = 2;

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
};

/**
 * Seconds of wall clock spent in @p fn (steady clock), for the
 * human-facing `[grid] ... s wall` lines; never part of a report.
 */
double timedSeconds(const std::function<void()> &fn);

} // namespace bbb

#endif // BBB_API_REPORT_HH
