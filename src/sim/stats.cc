#include "sim/stats.hh"

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

// --- StatRegistry -------------------------------------------------------

StatGroup &
StatRegistry::group(const std::string &name)
{
    auto [it, fresh] = _groups.try_emplace(name);
    if (!fresh) {
        fatal("stat group '%s' registered twice: two components would "
              "silently merge their stats under one name (use find() to "
              "look a group up)",
              name.c_str());
    }
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

MetricSnapshot
StatRegistry::snapshot(bool histogram_buckets) const
{
    MetricSnapshot snap;
    for (const auto &[group, g] : _groups) {
        for (const auto &c : g._counters)
            snap.setCount(group + "." + c.name, c.stat->value());
        for (const auto &a : g._averages) {
            std::string name = group + "." + a.name;
            snap.setReal(name + ".sum", a.stat->sum());
            snap.setCount(name + ".count", a.stat->count());
        }
        for (const auto &h : g._histograms) {
            std::string name = group + "." + h.name;
            const StatHistogram &hist = *h.stat;
            snap.setCount(name + ".samples", hist.samples());
            snap.setCount(name + ".sum", hist.sum());
            snap.setReal(name + ".max",
                         static_cast<double>(hist.maxSample()));
            if (!histogram_buckets)
                continue;
            // Zero-padded indices keep lexicographic order == bucket
            // order.
            unsigned digits = 1;
            for (std::size_t n = hist.buckets() - 1; n >= 10; n /= 10)
                ++digits;
            for (std::size_t i = 0; i < hist.buckets(); ++i) {
                std::string idx = std::to_string(i);
                snap.setCount(name + ".bucket" +
                                  std::string(digits - idx.size(), '0') +
                                  idx,
                              hist.bucketCount(i));
            }
        }
    }
    return snap;
}

std::uint64_t
StatRegistry::lookup(const std::string &g, const std::string &s) const
{
    const StatGroup *grp = find(g);
    if (grp) {
        for (const auto &c : grp->_counters) {
            if (c.name == s)
                return c.stat->value();
        }
    }
    return 0;
}

} // namespace bbb
