/**
 * @file
 * A light statistics package: named scalar counters, averages, and
 * histograms registered into per-component groups, and the metric
 * snapshot every run's results are read from.
 *
 * Modeled loosely on the gem5 stats framework but simplified: stats are
 * plain objects owned by components; a StatGroup records (name, pointer)
 * pairs, and StatRegistry::snapshot() copies every one of them into a
 * MetricSnapshot: a deterministic, hierarchically-named value tree
 * (`core0.stall_ticks`, `bbpb.coalesces`, ...) with a dependency-free
 * JSON emitter with stable (sorted) key order.
 */

#ifndef BBB_SIM_STATS_HH
#define BBB_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/logging.hh"

namespace bbb
{

class JsonWriter;

/** Monotonically increasing (or arbitrarily set) scalar statistic. */
class StatCounter
{
  public:
    StatCounter() = default;

    StatCounter &operator++() { ++_value; return *this; }
    StatCounter &operator+=(std::uint64_t v) { _value += v; return *this; }

    void set(std::uint64_t v) { _value = v; }
    std::uint64_t value() const { return _value; }

  private:
    std::uint64_t _value = 0;
};

/** Running average (sum / count). */
class StatAverage
{
  public:
    void
    sample(double v)
    {
        _sum += v;
        ++_count;
    }

    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }

  private:
    double _sum = 0.0;
    std::uint64_t _count = 0;
};

/** Fixed-bucket histogram over [0, max) plus an overflow bucket. */
class StatHistogram
{
  public:
    StatHistogram() : StatHistogram(16, 16) {}

    /** @p buckets buckets of width @p bucket_width, plus overflow. */
    StatHistogram(unsigned buckets, std::uint64_t bucket_width)
        : _width(bucket_width), _counts(buckets + 1, 0)
    {
        BBB_ASSERT(buckets > 0 && bucket_width > 0, "bad histogram shape");
    }

    void
    sample(std::uint64_t v)
    {
        std::size_t idx = static_cast<std::size_t>(v / _width);
        if (idx >= _counts.size() - 1)
            idx = _counts.size() - 1;
        ++_counts[idx];
        ++_samples;
        _sum += v;
        _max = std::max(_max, v);
    }

    std::uint64_t samples() const { return _samples; }
    std::uint64_t maxSample() const { return _max; }
    std::uint64_t sum() const { return _sum; }

    std::uint64_t bucketCount(std::size_t i) const { return _counts.at(i); }
    std::size_t buckets() const { return _counts.size(); }

  private:
    std::uint64_t _width;
    std::vector<std::uint64_t> _counts;
    std::uint64_t _samples = 0;
    std::uint64_t _sum = 0;
    std::uint64_t _max = 0;
};

/** What one MetricSnapshot value measures. */
enum class MetricKind
{
    /** Monotonic event count (uint64, exact). */
    Count,
    /** Real quantity: a sum of samples, a ratio, a level. */
    Real,
};

/** One value in a MetricSnapshot. */
struct MetricValue
{
    MetricKind kind = MetricKind::Count;
    std::uint64_t count = 0; ///< payload when kind == Count
    double real = 0.0;       ///< payload otherwise

    double
    asReal() const
    {
        return kind == MetricKind::Count ? static_cast<double>(count)
                                         : real;
    }
};

/**
 * A deterministic, hierarchically-named value tree.
 *
 * Names are dotted paths (`core0.stall_ticks`, `crash.drained_bytes`);
 * values are kept sorted by full name, so iteration order — and
 * therefore every emitted byte — is a pure function of the contents.
 * A name may not simultaneously be a leaf and a prefix of another name
 * (`a.b` and `a.b.c`); the setters reject that shape because it cannot
 * nest into a JSON object tree.
 */
class MetricSnapshot
{
  public:
    void
    setCount(const std::string &name, std::uint64_t v)
    {
        set(name, MetricValue{MetricKind::Count, v, 0.0});
    }

    void
    setReal(const std::string &name, double v)
    {
        set(name, MetricValue{MetricKind::Real, 0, v});
    }

    /** Value by full name, or nullptr. */
    const MetricValue *find(const std::string &name) const;

    /** Count payload by name; 0 if absent or not a Count. */
    std::uint64_t count(const std::string &name) const;

    /** Numeric payload by name (any kind); 0.0 if absent. */
    double real(const std::string &name) const;

    bool empty() const { return _values.empty(); }
    std::size_t size() const { return _values.size(); }

    /** Copy every value of @p other in, optionally under `prefix.`. */
    void merge(const MetricSnapshot &other, const std::string &prefix = "");

    /** Nested JSON object tree (sorted keys, stable bytes). */
    void writeJson(std::ostream &os) const;
    std::string toJson() const;

    /**
     * Emit the same object tree as one value of an enclosing document
     * (the writer supplies indentation/position). Used by BenchReport
     * to splice snapshots into report sections.
     */
    void writeJsonInto(JsonWriter &w) const;

    const std::map<std::string, MetricValue> &values() const
    {
        return _values;
    }

  private:
    void set(const std::string &name, const MetricValue &v);

    std::map<std::string, MetricValue> _values;
};

/**
 * The statistics of one component. The group does not own the stats;
 * components keep them as members and register pointers, so hot-path
 * updates stay a plain increment.
 */
class StatGroup
{
  public:
    void
    addCounter(const std::string &stat_name, StatCounter *c)
    {
        _counters.push_back({stat_name, c});
    }

    void
    addAverage(const std::string &stat_name, StatAverage *a)
    {
        _averages.push_back({stat_name, a});
    }

    void
    addHistogram(const std::string &stat_name, StatHistogram *h)
    {
        _histograms.push_back({stat_name, h});
    }

  private:
    friend class StatRegistry;

    template <typename T>
    struct Named
    {
        std::string name;
        T *stat;
    };

    std::vector<Named<StatCounter>> _counters;
    std::vector<Named<StatAverage>> _averages;
    std::vector<Named<StatHistogram>> _histograms;
};

/** Registry of all stat groups in a simulated system, keyed by name. */
class StatRegistry
{
  public:
    /**
     * Create the group with the given name. Registering the same group
     * name twice is fatal: the old create-or-fetch semantics silently
     * merged two components' stats under one name, which corrupted every
     * per-component report. Use find() to look an existing group up.
     */
    StatGroup &group(const std::string &name);

    /** The group with the given name, or nullptr. */
    StatGroup *find(const std::string &name);
    const StatGroup *find(const std::string &name) const;

    /**
     * Capture every registered stat into a metric snapshot, each as
     * `group.stat`. Counters become Count values; averages expand to
     * `.sum` (Real) and `.count`; histograms expand to `.samples`,
     * `.sum`, `.max` (Real) and — when @p histogram_buckets —
     * zero-padded `.bucketNN` counts.
     */
    MetricSnapshot snapshot(bool histogram_buckets = false) const;

    /** The current value of counter `g.s` (mid-run too); 0 if absent. */
    std::uint64_t lookup(const std::string &g, const std::string &s) const;

  private:
    std::map<std::string, StatGroup> _groups;
};

} // namespace bbb

#endif // BBB_SIM_STATS_HH
