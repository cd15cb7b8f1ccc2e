/**
 * @file
 * A light statistics package: named scalar counters, averages, and
 * histograms registered into per-component groups, with a text reporter
 * and a structured snapshot layer.
 *
 * Modeled loosely on the gem5 stats framework but simplified: stats are
 * plain objects owned by components; a StatGroup records (name, pointer)
 * pairs for dumping and snapshots.
 *
 * Everything that consumes the registry — the human text dump, metric
 * snapshots, lookups — goes through one StatVisitor interface, so adding
 * an output format never touches the stat types again. MetricSnapshot is
 * the machine-readable face: a deterministic, hierarchically-named value
 * tree (`core0.stall_ticks`, `bbpb.coalesces`, ...) with a
 * dependency-free JSON emitter with stable (sorted) key order.
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
    void reset() { _value = 0; }

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

    double mean() const { return _count ? _sum / _count : 0.0; }
    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }

    void
    reset()
    {
        _sum = 0.0;
        _count = 0;
    }

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
    double mean() const
    {
        return _samples ? static_cast<double>(_sum) / _samples : 0.0;
    }

    std::uint64_t bucketCount(std::size_t i) const { return _counts.at(i); }
    std::size_t buckets() const { return _counts.size(); }
    std::uint64_t bucketWidth() const { return _width; }

    void
    reset()
    {
        std::fill(_counts.begin(), _counts.end(), 0);
        _samples = 0;
        _sum = 0;
        _max = 0;
    }

  private:
    std::uint64_t _width;
    std::vector<std::uint64_t> _counts;
    std::uint64_t _samples = 0;
    std::uint64_t _sum = 0;
    std::uint64_t _max = 0;
};

/**
 * Visitor over every registered stat. Names arrive fully qualified
 * (`group.stat`); the text dump, metric snapshots, and lookups are all
 * implemented against this interface.
 */
class StatVisitor
{
  public:
    virtual ~StatVisitor() = default;

    virtual void counter(const std::string &name, const std::string &desc,
                         const StatCounter &c) = 0;
    virtual void average(const std::string &name, const std::string &desc,
                         const StatAverage &a) = 0;
    virtual void histogram(const std::string &name, const std::string &desc,
                           const StatHistogram &h) = 0;
};

/** What one MetricSnapshot value measures. */
enum class MetricKind
{
    /** Monotonic event count (uint64, exact). */
    Count,
    /** Accumulated real quantity (sum of samples). */
    Real,
    /** Instantaneous level / watermark. */
    Level,
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

    void
    setLevel(const std::string &name, double v)
    {
        set(name, MetricValue{MetricKind::Level, 0, v});
    }

    /** Value by full name, or nullptr. */
    const MetricValue *find(const std::string &name) const;

    /** Count payload by name; 0 if absent or not a Count. */
    std::uint64_t count(const std::string &name) const;

    /** Numeric payload by name (any kind); 0.0 if absent. */
    double real(const std::string &name) const;

    bool empty() const { return _values.empty(); }
    std::size_t size() const { return _values.size(); }

    /** Drop every value (an empty snapshot, not a zeroed one). */
    void reset() { _values.clear(); }

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
 * A named collection of statistics belonging to one component. The group
 * does not own the stats; components keep them as members and register
 * pointers, so hot-path updates stay a plain increment.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : _name(std::move(name)) {}

    void
    addCounter(const std::string &stat_name, StatCounter *c,
               const std::string &desc = "")
    {
        _counters.push_back({stat_name, desc, c});
    }

    void
    addAverage(const std::string &stat_name, StatAverage *a,
               const std::string &desc = "")
    {
        _averages.push_back({stat_name, desc, a});
    }

    void
    addHistogram(const std::string &stat_name, StatHistogram *h,
                 const std::string &desc = "")
    {
        _histograms.push_back({stat_name, desc, h});
    }

    const std::string &name() const { return _name; }

    /** Visit every registered stat as `group.stat`. */
    void accept(StatVisitor &v) const;

    /** Write `group.stat value # desc` lines, gem5 stats.txt style. */
    void dump(std::ostream &os) const;

    /** Look up a counter's current value by name; 0 if absent. */
    std::uint64_t counterValue(const std::string &stat_name) const;

  private:
    template <typename T>
    struct Named
    {
        std::string name;
        std::string desc;
        T *stat;
    };

    std::string _name;
    std::vector<Named<StatCounter>> _counters;
    std::vector<Named<StatAverage>> _averages;
    std::vector<Named<StatHistogram>> _histograms;
};

/** Registry of all stat groups in a simulated system. */
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

    /** Visit every stat of every group, in registration order. */
    void accept(StatVisitor &v) const;

    /**
     * Capture every registered stat into a metric snapshot. Counters
     * become Count values; averages expand to `.sum` (Real) and
     * `.count`; histograms expand to `.samples`, `.sum`, `.max` (Level)
     * and — when @p histogram_buckets — zero-padded `.bucketNN` counts.
     */
    MetricSnapshot snapshot(bool histogram_buckets = false) const;

    /** Dump every group in registration order. */
    void dumpAll(std::ostream &os) const;

    /** Convenience: counter value of `g.s`; 0 if either is absent. */
    std::uint64_t lookup(const std::string &g, const std::string &s) const;

  private:
    std::vector<std::string> _order;
    std::map<std::string, StatGroup> _groups;
};

} // namespace bbb

#endif // BBB_SIM_STATS_HH
