#include "power/power_trace.hh"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace bbb
{

namespace
{

/** Parse a full-token double; false when @p s is not purely numeric. */
bool
parseDouble(const std::string &s, double *out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    if (end != s.c_str() + s.size())
        return false;
    *out = v;
    return true;
}

/** Split on @p sep, keeping empty fields (they become diagnostics). */
std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        std::size_t p = s.find(sep, start);
        if (p == std::string::npos)
            p = s.size();
        out.push_back(s.substr(start, p - start));
        start = p + 1;
    }
    return out;
}

/**
 * Validate an assembled segment list: non-empty, every segment non-zero
 * length, tick ranges monotone, levels in [0, 1]. @p where maps the
 * segment index to the user-facing segment number.
 */
bool
validateSegments(const std::vector<PowerSegment> &segs,
                 const std::vector<unsigned> &where, std::string *err)
{
    if (segs.empty()) {
        *err = "empty trace: at least one segment is required";
        return false;
    }
    Tick prev_end = 0;
    for (std::size_t i = 0; i < segs.size(); ++i) {
        std::ostringstream os;
        os << "segment " << where[i] << ": ";
        const PowerSegment &s = segs[i];
        if (s.end <= s.begin) {
            os << "zero-length segment [" << s.begin << ", " << s.end
               << ")";
            *err = os.str();
            return false;
        }
        if (i > 0 && s.begin < prev_end) {
            os << "non-monotone ticks: begin " << s.begin
               << " precedes previous end " << prev_end;
            *err = os.str();
            return false;
        }
        if (s.level < 0.0 || s.level > 1.0) {
            os << "supply level " << s.level << " outside [0, 1]";
            *err = os.str();
            return false;
        }
        prev_end = s.end;
    }
    return true;
}

/** Parsed `key=value` preset parameters after the preset name. */
struct PresetParams
{
    std::vector<std::pair<std::string, double>> kv;

    double
    get(const char *key, double def) const
    {
        for (const auto &p : kv) {
            if (p.first == key)
                return p.second;
        }
        return def;
    }

    bool
    known(const std::vector<std::string> &keys, std::string *err) const
    {
        for (const auto &p : kv) {
            if (std::find(keys.begin(), keys.end(), p.first) ==
                keys.end()) {
                *err = "unknown trace parameter '" + p.first + "'";
                return false;
            }
        }
        return true;
    }
};

bool
parsePresetParams(const std::vector<std::string> &parts, PresetParams *out,
                  std::string *err)
{
    for (std::size_t i = 1; i < parts.size(); ++i) {
        auto eq = parts[i].find('=');
        double v = 0.0;
        if (eq == std::string::npos || eq == 0 ||
            !parseDouble(parts[i].substr(eq + 1), &v)) {
            *err = "malformed trace parameter '" + parts[i] +
                   "' (want key=NUMBER)";
            return false;
        }
        out->kv.emplace_back(parts[i].substr(0, eq), v);
    }
    return true;
}

/** Append one segment of @p us microseconds at @p level. */
void
appendUs(std::vector<PowerSegment> &segs, Tick &at, double us,
         double level)
{
    Tick len = nsToTicks(us * 1000.0);
    segs.push_back({at, at + len, level});
    at += len;
}

bool
buildPreset(const std::string &token, std::vector<PowerSegment> *segs,
            std::string *err)
{
    std::vector<std::string> parts = split(token, ':');
    const std::string &name = parts[0];
    PresetParams params;
    if (!parsePresetParams(parts, &params, err))
        return false;

    Tick at = 0;
    if (name == "steady") {
        if (!params.known({"us"}, err))
            return false;
        appendUs(*segs, at, params.get("us", 400.0), 1.0);
        return true;
    }
    if (name == "brownout") {
        if (!params.known({"cycles"}, err))
            return false;
        unsigned cycles =
            static_cast<unsigned>(params.get("cycles", 4.0));
        for (unsigned c = 0; c < cycles; ++c) {
            appendUs(*segs, at, 60.0, 1.0);  // full power
            appendUs(*segs, at, 25.0, 0.35); // brownout: battery supplements
            appendUs(*segs, at, 10.0, 0.0);  // outage
        }
        return true;
    }
    if (name == "square") {
        if (!params.known({"cycles", "on_us", "off_us"}, err))
            return false;
        unsigned cycles =
            static_cast<unsigned>(params.get("cycles", 5.0));
        double on_us = params.get("on_us", 45.0);
        double off_us = params.get("off_us", 35.0);
        for (unsigned c = 0; c < cycles; ++c) {
            appendUs(*segs, at, on_us, 1.0);
            appendUs(*segs, at, off_us, 0.0);
        }
        return true;
    }
    if (name == "outages") {
        if (!params.known({"seed", "cycles"}, err))
            return false;
        std::uint64_t seed =
            static_cast<std::uint64_t>(params.get("seed", 1.0));
        unsigned cycles =
            static_cast<unsigned>(params.get("cycles", 5.0));
        Rng rng(seed ^ 0x70ace5ull);
        for (unsigned c = 0; c < cycles; ++c) {
            double on_us = 30.0 + static_cast<double>(rng.below(61));
            double level = 0.8 + 0.2 * rng.uniform();
            appendUs(*segs, at, on_us, level);
            if (rng.chance(0.25)) { // occasional brownout before the cut
                appendUs(*segs, at,
                         10.0 + static_cast<double>(rng.below(11)), 0.3);
            }
            appendUs(*segs, at,
                     10.0 + static_cast<double>(rng.below(31)), 0.0);
        }
        return true;
    }
    *err = "unknown power-trace preset '" + name + "'";
    return false;
}

bool
buildInline(const std::string &body, std::vector<PowerSegment> *segs,
            std::vector<unsigned> *where, std::string *err)
{
    std::vector<std::string> items = split(body, ';');
    unsigned n = 0;
    for (const std::string &item : items) {
        ++n;
        if (item.empty())
            continue; // permit a trailing ';'
        std::ostringstream os;
        os << "segment " << n << ": ";
        auto dash = item.find('-');
        auto at = item.find('@');
        double b_ns = 0.0, e_ns = 0.0, level = 0.0;
        if (dash == std::string::npos || at == std::string::npos ||
            at < dash ||
            !parseDouble(item.substr(0, dash), &b_ns) ||
            !parseDouble(item.substr(dash + 1, at - dash - 1), &e_ns) ||
            !parseDouble(item.substr(at + 1), &level)) {
            os << "malformed '" << item << "' (want BEGIN_NS-END_NS@LEVEL)";
            *err = os.str();
            return false;
        }
        if (b_ns < 0.0 || e_ns < 0.0) {
            os << "negative tick range in '" << item << "'";
            *err = os.str();
            return false;
        }
        segs->push_back({nsToTicks(b_ns), nsToTicks(e_ns), level});
        where->push_back(n);
    }
    return true;
}

} // namespace

double
PowerTrace::levelAt(Tick t) const
{
    // Segments are few (presets build < 64); linear scan is fine and
    // keeps the function trivially correct for gaps.
    for (const PowerSegment &s : _segs) {
        if (t < s.begin)
            return 0.0; // in a gap before this segment
        if (t < s.end)
            return s.level;
    }
    return 0.0;
}

bool
PowerTrace::tryParse(const std::string &token, PowerTrace *out,
                     std::string *err)
{
    std::string why;
    if (!err)
        err = &why;
    if (token.empty()) {
        *err = "empty trace token";
        return false;
    }
    if (token.find(',') != std::string::npos) {
        // The token must survive comma-separated `--traces` lists.
        *err = "trace token must not contain ',' (use ';' and ':')";
        return false;
    }

    std::vector<PowerSegment> segs;
    std::vector<unsigned> where;
    if (token.rfind("seg:", 0) == 0) {
        if (!buildInline(token.substr(4), &segs, &where, err))
            return false;
    } else {
        if (!buildPreset(token, &segs, err))
            return false;
        where.resize(segs.size());
        for (std::size_t i = 0; i < segs.size(); ++i)
            where[i] = static_cast<unsigned>(i + 1);
    }
    if (!validateSegments(segs, where, err))
        return false;

    out->_segs = std::move(segs);
    out->_token = token;
    return true;
}

PowerTrace
PowerTrace::parse(const std::string &token)
{
    PowerTrace t;
    std::string err;
    if (!tryParse(token, &t, &err))
        fatal("bad power trace '%s': %s", token.c_str(), err.c_str());
    return t;
}

std::vector<std::string>
powerTracePresetNames()
{
    return {"steady", "brownout", "square", "outages"};
}

} // namespace bbb
