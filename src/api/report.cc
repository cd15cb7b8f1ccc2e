#include "api/report.hh"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace bbb
{

void
BenchReport::setConfig(const std::string &key, const std::string &value)
{
    _config[key] = value;
}

void
BenchReport::setConfig(const std::string &key, const char *value)
{
    _config[key] = value;
}

void
BenchReport::setConfig(const std::string &key, std::uint64_t value)
{
    _config[key] = jsonNumber(value);
}

void
BenchReport::setConfig(const std::string &key, bool value)
{
    _config[key] = value ? "true" : "false";
}

void
BenchReport::paperRef(const std::string &name, double v)
{
    _paper.setReal(name, v);
}

void
BenchReport::addExperiment(const std::string &label,
                           const MetricSnapshot &metrics)
{
    _experiments.push_back({label, metrics});
}

namespace
{

/** A MetricSnapshot's object tree as one member of the document. */
void
writeSnapshotMember(JsonWriter &w, const std::string &key,
                    const MetricSnapshot &snap)
{
    w.key(key);
    snap.writeJsonInto(w);
}

} // namespace

void
BenchReport::writeJson(std::ostream &os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.member("schema", kSchema);
    w.member("schema_version", kSchemaVersion);
    w.member("bench", _bench);

    w.key("config");
    w.beginObject();
    for (const auto &kv : _config)
        w.member(kv.first, kv.second);
    w.endObject();

    writeSnapshotMember(w, "paper", _paper);
    writeSnapshotMember(w, "measured", _measured);

    w.key("experiments");
    w.beginArray();
    for (const Entry &e : _experiments) {
        w.beginObject();
        w.member("label", e.label);
        writeSnapshotMember(w, "metrics", e.metrics);
        w.endObject();
    }
    w.endArray();

    w.endObject();
    os << '\n';
    BBB_ASSERT(w.done(), "unbalanced report document");
}

std::string
BenchReport::toJson() const
{
    std::ostringstream os;
    writeJson(os);
    return os.str();
}

void
BenchReport::writeFile(const std::string &path) const
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        fatal("cannot open '%s' for the JSON report", path.c_str());
    writeJson(os);
    os.flush();
    if (!os)
        fatal("failed writing the JSON report to '%s'", path.c_str());
    std::printf("[report] wrote %s\n", path.c_str());
}

double
timedSeconds(const std::function<void()> &fn)
{
    auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace bbb
