#include "sim/stats.hh"

#include <iomanip>
#include <sstream>

#include "sim/json.hh"

namespace bbb
{

// --- MetricSnapshot -----------------------------------------------------

void
MetricSnapshot::set(const std::string &name, const MetricValue &v)
{
    BBB_ASSERT(!name.empty(), "empty metric name");
    // A leaf may not also be an interior node of the tree: reject a new
    // name that extends an existing leaf ("a.b" then "a.b.c") ...
    std::size_t dot = name.rfind('.');
    while (dot != std::string::npos) {
        std::string prefix = name.substr(0, dot);
        BBB_ASSERT(_values.find(prefix) == _values.end(),
                   "metric '%s' shadows leaf '%s'", name.c_str(),
                   prefix.c_str());
        dot = prefix.rfind('.');
    }
    // ... and a new leaf that an existing name already extends.
    auto below = _values.lower_bound(name + ".");
    BBB_ASSERT(below == _values.end() ||
                   below->first.compare(0, name.size() + 1, name + ".") != 0,
               "metric '%s' shadows subtree '%s'", name.c_str(),
               below == _values.end() ? "" : below->first.c_str());
    _values[name] = v;
}

const MetricValue *
MetricSnapshot::find(const std::string &name) const
{
    auto it = _values.find(name);
    return it == _values.end() ? nullptr : &it->second;
}

std::uint64_t
MetricSnapshot::count(const std::string &name) const
{
    const MetricValue *v = find(name);
    return v && v->kind == MetricKind::Count ? v->count : 0;
}

double
MetricSnapshot::real(const std::string &name) const
{
    const MetricValue *v = find(name);
    return v ? v->asReal() : 0.0;
}

void
MetricSnapshot::merge(const MetricSnapshot &other, const std::string &prefix)
{
    for (const auto &kv : other._values)
        set(prefix.empty() ? kv.first : prefix + "." + kv.first, kv.second);
}

namespace
{

void
writeMetricScalar(JsonWriter &w, const MetricValue &v)
{
    if (v.kind == MetricKind::Count)
        w.value(v.count);
    else
        w.value(v.real);
}

std::vector<std::string>
splitDotted(const std::string &name)
{
    std::vector<std::string> segs;
    std::size_t start = 0;
    while (start <= name.size()) {
        std::size_t dot = name.find('.', start);
        if (dot == std::string::npos)
            dot = name.size();
        segs.push_back(name.substr(start, dot - start));
        start = dot + 1;
    }
    return segs;
}

} // namespace

void
MetricSnapshot::writeJsonInto(JsonWriter &w) const
{
    w.beginObject();
    std::vector<std::string> open;
    for (const auto &kv : _values) {
        std::vector<std::string> segs = splitDotted(kv.first);
        std::size_t common = 0;
        while (common < open.size() && common + 1 < segs.size() &&
               open[common] == segs[common])
            ++common;
        while (open.size() > common) {
            w.endObject();
            open.pop_back();
        }
        for (std::size_t i = common; i + 1 < segs.size(); ++i) {
            w.key(segs[i]);
            w.beginObject();
            open.push_back(segs[i]);
        }
        w.key(segs.back());
        writeMetricScalar(w, kv.second);
    }
    while (!open.empty()) {
        w.endObject();
        open.pop_back();
    }
    w.endObject();
}

void
MetricSnapshot::writeJson(std::ostream &os) const
{
    JsonWriter w(os);
    writeJsonInto(w);
}

std::string
MetricSnapshot::toJson() const
{
    std::ostringstream os;
    writeJson(os);
    return os.str();
}

// --- StatGroup ----------------------------------------------------------

void
StatGroup::accept(StatVisitor &v) const
{
    for (const auto &c : _counters)
        v.counter(_name + "." + c.name, c.desc, *c.stat);
    for (const auto &a : _averages)
        v.average(_name + "." + a.name, a.desc, *a.stat);
    for (const auto &h : _histograms)
        v.histogram(_name + "." + h.name, h.desc, *h.stat);
}

namespace
{

/** The classic `group.stat value # desc` text dump as a visitor. */
class TextDumpVisitor : public StatVisitor
{
  public:
    explicit TextDumpVisitor(std::ostream &os) : _os(os) {}

    void
    counter(const std::string &name, const std::string &desc,
            const StatCounter &c) override
    {
        line(name, static_cast<double>(c.value()), desc);
    }

    void
    average(const std::string &name, const std::string &desc,
            const StatAverage &a) override
    {
        line(name, a.mean(), desc);
    }

    void
    histogram(const std::string &name, const std::string &desc,
              const StatHistogram &h) override
    {
        line(name + "::samples", static_cast<double>(h.samples()), desc);
        line(name + "::mean", h.mean(), "");
        line(name + "::max", static_cast<double>(h.maxSample()), "");
    }

  private:
    void
    line(const std::string &n, double v, const std::string &d)
    {
        _os << std::left << std::setw(44) << n << " " << std::right
            << std::setw(16) << v;
        if (!d.empty())
            _os << "  # " << d;
        _os << "\n";
    }

    std::ostream &_os;
};

/** Captures every stat into a MetricSnapshot. */
class SnapshotVisitor : public StatVisitor
{
  public:
    SnapshotVisitor(MetricSnapshot &snap, bool buckets)
        : _snap(snap), _buckets(buckets)
    {
    }

    void
    counter(const std::string &name, const std::string &,
            const StatCounter &c) override
    {
        _snap.setCount(name, c.value());
    }

    void
    average(const std::string &name, const std::string &,
            const StatAverage &a) override
    {
        _snap.setReal(name + ".sum", a.sum());
        _snap.setCount(name + ".count", a.count());
    }

    void
    histogram(const std::string &name, const std::string &,
              const StatHistogram &h) override
    {
        _snap.setCount(name + ".samples", h.samples());
        _snap.setCount(name + ".sum", h.sum());
        _snap.setLevel(name + ".max", static_cast<double>(h.maxSample()));
        if (!_buckets)
            return;
        // Zero-padded indices keep lexicographic order == bucket order.
        unsigned digits = 1;
        for (std::size_t n = h.buckets() - 1; n >= 10; n /= 10)
            ++digits;
        for (std::size_t i = 0; i < h.buckets(); ++i) {
            std::string idx = std::to_string(i);
            _snap.setCount(name + ".bucket" +
                               std::string(digits - idx.size(), '0') + idx,
                           h.bucketCount(i));
        }
    }

  private:
    MetricSnapshot &_snap;
    bool _buckets;
};

} // namespace

void
StatGroup::dump(std::ostream &os) const
{
    TextDumpVisitor v(os);
    accept(v);
}

std::uint64_t
StatGroup::counterValue(const std::string &stat_name) const
{
    for (const auto &c : _counters) {
        if (c.name == stat_name)
            return c.stat->value();
    }
    return 0;
}

// --- StatRegistry -------------------------------------------------------

StatGroup &
StatRegistry::group(const std::string &name)
{
    auto it = _groups.find(name);
    if (it != _groups.end()) {
        fatal("stat group '%s' registered twice: two components would "
              "silently merge their stats under one name (use find() to "
              "look a group up)",
              name.c_str());
    }
    it = _groups.emplace(name, StatGroup(name)).first;
    _order.push_back(name);
    return it->second;
}

StatGroup *
StatRegistry::find(const std::string &name)
{
    auto it = _groups.find(name);
    return it == _groups.end() ? nullptr : &it->second;
}

const StatGroup *
StatRegistry::find(const std::string &name) const
{
    auto it = _groups.find(name);
    return it == _groups.end() ? nullptr : &it->second;
}

void
StatRegistry::accept(StatVisitor &v) const
{
    for (const auto &name : _order)
        _groups.at(name).accept(v);
}

MetricSnapshot
StatRegistry::snapshot(bool histogram_buckets) const
{
    MetricSnapshot snap;
    SnapshotVisitor v(snap, histogram_buckets);
    accept(v);
    return snap;
}

void
StatRegistry::dumpAll(std::ostream &os) const
{
    for (const auto &name : _order)
        _groups.at(name).dump(os);
}

std::uint64_t
StatRegistry::lookup(const std::string &g, const std::string &s) const
{
    const StatGroup *grp = find(g);
    return grp ? grp->counterValue(s) : 0;
}

} // namespace bbb
