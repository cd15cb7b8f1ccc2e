#include "litmus/model.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace bbb
{
namespace litmus
{

std::string
stepName(Step s)
{
    std::string out = std::to_string(unsigned(s.thread));
    if (s.drain)
        out += "d";
    return out;
}

std::string
scheduleString(const std::vector<Step> &steps)
{
    if (steps.empty())
        return "(empty)";
    std::string out;
    for (const Step &s : steps) {
        if (!out.empty())
            out += " ";
        out += stepName(s);
    }
    return out;
}

bool
parseSchedule(const std::string &text, std::vector<Step> *out,
              std::string *err)
{
    out->clear();
    if (text == "(empty)" || text.empty())
        return true;
    std::string cur;
    auto flush_tok = [&]() -> bool {
        if (cur.empty())
            return true;
        Step s;
        if (cur.back() == 'd') {
            s.drain = true;
            cur.pop_back();
        }
        if (cur.size() != 1 || cur[0] < '0' ||
            cur[0] >= '0' + int(kMaxThreads)) {
            if (err)
                *err = "bad schedule step '" + cur + "'";
            return false;
        }
        s.thread = static_cast<std::uint8_t>(cur[0] - '0');
        out->push_back(s);
        cur.clear();
        return true;
    };
    for (char c : text) {
        if (c == ' ' || c == ',') {
            if (!flush_tok())
                return false;
        } else {
            cur.push_back(c);
        }
    }
    return flush_tok();
}

ModelState
ModelState::initial(unsigned nvars)
{
    ModelState s;
    BBB_ASSERT(nvars <= kMaxVars, "too many litmus variables");
    for (unsigned v = 0; v < nvars; ++v)
        s.hist[v].push_back(0); // initial value, durable by definition
    return s;
}

bool
ModelState::enabled(const Program &prog, Step s) const
{
    unsigned t = s.thread;
    if (t >= prog.numThreads())
        return false;
    if (s.drain)
        return !sb[t].empty();
    if (pc[t] >= prog.threads[t].size())
        return false;
    const MOp &op = prog.threads[t][pc[t]];
    switch (op.kind) {
      case MKind::Store:
      case MKind::Load:
        return true;
      case MKind::Flush:
        // clwb on a block the SB still buffers would wait for the
        // retirement; the enumerator reaches the same state via the
        // drain-first order instead.
        for (const auto &e : sb[t]) {
            if (e.first == op.var)
                return false;
        }
        return true;
      case MKind::Fence:
        return sb[t].empty();
    }
    return false;
}

void
ModelState::apply(const Program &prog, Step s)
{
    BBB_ASSERT(enabled(prog, s), "applying a disabled step");
    unsigned t = s.thread;
    if (s.drain) {
        auto front = sb[t].front();
        sb[t].erase(sb[t].begin());
        mem[front.first] = front.second;
        hist[front.first].push_back(front.second);
        return;
    }
    const MOp &op = prog.threads[t][pc[t]];
    ++pc[t];
    switch (op.kind) {
      case MKind::Store:
        sb[t].emplace_back(op.var, op.val);
        return;
      case MKind::Load: {
        std::uint64_t val = mem[op.var];
        for (auto it = sb[t].rbegin(); it != sb[t].rend(); ++it) {
            if (it->first == op.var) {
                val = it->second;
                break;
            }
        }
        regs[op.reg] = val;
        reg_done[op.reg] = true;
        return;
      }
      case MKind::Flush:
        pending_flush[t].emplace_back(
            op.var,
            static_cast<std::uint32_t>(hist[op.var].size() - 1));
        return;
      case MKind::Fence:
        for (const auto &pf : pending_flush[t])
            durmin[pf.first] = std::max(durmin[pf.first], pf.second);
        pending_flush[t].clear();
        return;
    }
}

std::vector<Step>
ModelState::enabledSteps(const Program &prog) const
{
    std::vector<Step> out;
    for (std::uint8_t t = 0; t < prog.numThreads(); ++t) {
        Step s{t, false};
        if (enabled(prog, s))
            out.push_back(s);
    }
    for (std::uint8_t t = 0; t < prog.numThreads(); ++t) {
        Step s{t, true};
        if (enabled(prog, s))
            out.push_back(s);
    }
    return out;
}

bool
ModelState::imageValueAllowed(PersistMode mode, int var,
                              std::uint64_t value) const
{
    if (isStrictMode(mode))
        return value == mem[var];
    const auto &h = hist[var];
    for (std::uint32_t i = durmin[var]; i < h.size(); ++i) {
        if (h[i] == value)
            return true;
    }
    return false;
}

std::string
ModelState::allowedImageValues(PersistMode mode, int var) const
{
    if (isStrictMode(mode))
        return std::to_string(mem[var]);
    std::string out = "{";
    const auto &h = hist[var];
    for (std::uint32_t i = durmin[var]; i < h.size(); ++i) {
        if (out.size() > 1)
            out += ",";
        out += std::to_string(h[i]);
    }
    return out + "}";
}

namespace
{

/** The shared-memory variable a step touches, or -1 for none. */
int
stepVar(const Program &prog, const ModelState &state, Step s)
{
    if (s.drain)
        return state.sb[s.thread].empty()
                   ? -1
                   : state.sb[s.thread].front().first;
    const MOp &op = prog.threads[s.thread][state.pc[s.thread]];
    switch (op.kind) {
      case MKind::Load:
      case MKind::Flush:
        return op.var;
      case MKind::Store: // writes only the issuing thread's buffer
      case MKind::Fence:
        return -1;
    }
    return -1;
}

} // namespace

bool
dependent(const Program &prog, const ModelState &state, Step a, Step b)
{
    if (a.thread == b.thread)
        return true;
    if (!a.drain && !b.drain)
        return false; // issues commute across threads
    int va = stepVar(prog, state, a);
    int vb = stepVar(prog, state, b);
    return va >= 0 && va == vb;
}

} // namespace litmus
} // namespace bbb
