#include "litmus/litmus.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>

#include "sim/parse.hh"

namespace bbb
{
namespace litmus
{

std::string
modeNameError(const std::string &name)
{
    if (name == persistModeName(PersistMode::AdrUnsafe))
        return "adr-unsafe is not a litmus mode (it promises no "
               "persistency to check)";
    return nameError<PersistMode>(name);
}

bool
isStrictMode(PersistMode m)
{
    return m == PersistMode::BbbMemSide || m == PersistMode::BbbProcSide ||
           m == PersistMode::Eadr;
}

bool
Test::runsIn(PersistMode m) const
{
    return std::find(modes.begin(), modes.end(), m) != modes.end();
}

namespace
{

/** Strip a trailing `# comment` and surrounding whitespace. */
std::string
cleanLine(const std::string &raw)
{
    std::string s = raw;
    std::size_t hash = s.find('#');
    if (hash != std::string::npos)
        s.erase(hash);
    std::size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

/** Split on whitespace, treating ',' as whitespace too. */
std::vector<std::string>
tokens(const std::string &s)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (std::isspace(static_cast<unsigned char>(c)) || c == ',') {
            if (!cur.empty()) {
                out.push_back(cur);
                cur.clear();
            }
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

struct ParseCtx
{
    Test *test;
    std::string *err;
    /** 1-based line being parsed; 0 once the whole text is read. */
    unsigned line = 0;

    bool
    fail(const std::string &msg)
    {
        if (err)
            *err = line ? "line " + std::to_string(line) + ": " + msg : msg;
        return false;
    }

    /** A persistModeName() token naming a litmus mode. */
    bool
    mode(const std::string &tok, PersistMode *out)
    {
        if (std::string bad = modeNameError(tok); !bad.empty())
            return fail(bad);
        *out = parseName<PersistMode>(tok);
        return true;
    }

    int
    varId(const std::string &name)
    {
        auto &vars = test->vars;
        for (std::size_t i = 0; i < vars.size(); ++i) {
            if (vars[i] == name)
                return static_cast<int>(i);
        }
        if (vars.size() >= kMaxVars)
            return -1;
        vars.push_back(name);
        return static_cast<int>(vars.size() - 1);
    }

    /** Known variable only (witness clauses may not introduce vars). */
    int
    knownVar(const std::string &name) const
    {
        auto &vars = test->vars;
        for (std::size_t i = 0; i < vars.size(); ++i) {
            if (vars[i] == name)
                return static_cast<int>(i);
        }
        return -1;
    }

    int
    regId(const std::string &name, bool define)
    {
        auto &regs = test->regs;
        for (std::size_t i = 0; i < regs.size(); ++i) {
            if (regs[i] == name)
                return define ? -2 : static_cast<int>(i);
        }
        if (!define)
            return -1;
        if (regs.size() >= kMaxRegs)
            return -1;
        regs.push_back(name);
        return static_cast<int>(regs.size() - 1);
    }
};

bool
parseOp(ParseCtx &ctx, const std::string &text, SrcOp *op)
{
    std::vector<std::string> t = tokens(text);
    if (t.empty())
        return ctx.fail("empty op");
    const std::string &k = t[0];
    if (k == "st") {
        if (t.size() != 3)
            return ctx.fail("st needs VAR VAL: '" + text + "'");
        op->kind = SrcKind::Store;
        op->var = ctx.varId(t[1]);
        if (op->var < 0)
            return ctx.fail("too many variables (max 8)");
        if (!parseUnsigned(t[2], &op->val))
            return ctx.fail("bad store value '" + t[2] + "'");
        return true;
    }
    if (k == "ld") {
        if (t.size() != 3)
            return ctx.fail("ld needs VAR REG: '" + text + "'");
        op->kind = SrcKind::Load;
        op->var = ctx.varId(t[1]);
        if (op->var < 0)
            return ctx.fail("too many variables (max 8)");
        op->reg = ctx.regId(t[2], true);
        if (op->reg == -2)
            return ctx.fail("register '" + t[2] + "' written twice");
        if (op->reg < 0)
            return ctx.fail("too many registers (max 16)");
        return true;
    }
    if (k == "flush" || k == "flushopt") {
        if (t.size() != 2)
            return ctx.fail(k + " needs VAR: '" + text + "'");
        op->kind = k == "flush" ? SrcKind::Flush : SrcKind::FlushOpt;
        op->var = ctx.varId(t[1]);
        if (op->var < 0)
            return ctx.fail("too many variables (max 8)");
        return true;
    }
    if (k == "sfence" || k == "mfence") {
        if (t.size() != 1)
            return ctx.fail(k + " takes no operands: '" + text + "'");
        op->kind = k == "sfence" ? SrcKind::SFence : SrcKind::MFence;
        return true;
    }
    return ctx.fail("unknown op '" + k + "'");
}

/** `sometimes [MODES] (final|crash) NAME=VAL ...` after the keyword. */
bool
parseWitness(ParseCtx &ctx, const std::string &rest)
{
    Witness w;
    w.text = "sometimes " + rest;
    std::string body = rest;

    // Optional [mode,mode] tag.
    if (!body.empty() && body[0] == '[') {
        std::size_t close = body.find(']');
        if (close == std::string::npos)
            return ctx.fail("unterminated mode tag in witness");
        for (const std::string &tok :
             tokens(body.substr(1, close - 1))) {
            PersistMode m{};
            if (!ctx.mode(tok, &m))
                return false;
            w.modes.push_back(m);
        }
        body = cleanLine(body.substr(close + 1));
    }

    std::vector<std::string> t = tokens(body);
    if (t.empty() || (t[0] != "final" && t[0] != "crash"))
        return ctx.fail("witness needs 'final' or 'crash': " + w.text);
    w.on_crash = t[0] == "crash";
    if (t.size() < 2)
        return ctx.fail("empty witness assignment: " + w.text);

    for (std::size_t i = 1; i < t.size(); ++i) {
        std::size_t eq = t[i].find('=');
        if (eq == std::string::npos)
            return ctx.fail("witness term '" + t[i] +
                            "' is not NAME=VAL");
        std::string name = t[i].substr(0, eq);
        std::uint64_t val;
        if (!parseUnsigned(t[i].substr(eq + 1), &val))
            return ctx.fail("bad witness value in '" + t[i] + "'");
        if (w.on_crash) {
            int v = ctx.knownVar(name);
            if (v < 0)
                return ctx.fail("witness names unknown variable '" +
                                name + "'");
            w.vars.emplace_back(v, val);
        } else {
            int r = ctx.regId(name, false);
            if (r < 0)
                return ctx.fail("witness names unknown register '" +
                                name + "'");
            w.regs.emplace_back(r, val);
        }
    }
    ctx.test->witnesses.push_back(std::move(w));
    return true;
}

} // namespace

bool
parseTest(const std::string &text, Test *out, std::string *err)
{
    *out = Test{};
    ParseCtx ctx{out, err};

    std::istringstream in(text);
    std::string raw;
    bool have_name = false;
    while (std::getline(in, raw)) {
        ++ctx.line;
        std::string line = cleanLine(raw);
        if (line.empty())
            continue;

        if (!have_name) {
            std::vector<std::string> t = tokens(line);
            if (t.size() != 2 || t[0] != "test")
                return ctx.fail("first line must be 'test NAME'");
            out->name = t[1];
            have_name = true;
            continue;
        }

        if (line == "smoke") {
            out->smoke = true;
            continue;
        }
        if (line == "battery") {
            out->battery = true;
            continue;
        }
        if (line.rfind("modes", 0) == 0 &&
            (line.size() == 5 || line[5] == ' ' || line[5] == '\t')) {
            for (const std::string &tok : tokens(line.substr(5))) {
                PersistMode m{};
                if (!ctx.mode(tok, &m))
                    return false;
                if (!out->runsIn(m))
                    out->modes.push_back(m);
            }
            continue;
        }
        if (line.rfind("sometimes", 0) == 0) {
            if (!parseWitness(ctx, cleanLine(line.substr(9))))
                return false;
            continue;
        }

        // Thread line: tN: op; op; ...
        if (line.size() >= 3 && (line[0] == 't' || line[0] == 'T') &&
            std::isdigit(static_cast<unsigned char>(line[1]))) {
            std::size_t colon = line.find(':');
            if (colon == std::string::npos)
                return ctx.fail("thread line missing ':': " + line);
            unsigned tid =
                static_cast<unsigned>(std::strtoul(line.c_str() + 1,
                                                   nullptr, 10));
            if (tid >= kMaxThreads)
                return ctx.fail("thread id out of range (max 4 threads)");
            if (tid != out->threads.size())
                return ctx.fail(
                    "threads must be declared in order t0, t1, ...");
            out->threads.emplace_back();
            std::string ops = line.substr(colon + 1);
            std::size_t start = 0;
            while (start <= ops.size()) {
                std::size_t semi = ops.find(';', start);
                if (semi == std::string::npos)
                    semi = ops.size();
                std::string one =
                    cleanLine(ops.substr(start, semi - start));
                start = semi + 1;
                if (one.empty())
                    continue;
                SrcOp op;
                if (!parseOp(ctx, one, &op))
                    return false;
                out->threads.back().push_back(op);
            }
            if (out->threads.back().size() > kMaxOpsPerThread)
                return ctx.fail("thread t" + std::to_string(tid) +
                                " exceeds 8 ops");
            continue;
        }

        return ctx.fail("unrecognised line: '" + line + "'");
    }
    ctx.line = 0;

    if (!have_name)
        return ctx.fail("empty litmus text");
    if (out->threads.empty())
        return ctx.fail("test '" + out->name + "' has no threads");

    if (out->modes.empty()) {
        out->modes = {PersistMode::BbbMemSide, PersistMode::BbbProcSide,
                      PersistMode::Eadr, PersistMode::PmemStrict};
    }

    if (out->battery) {
        // The battery-prefix checker predicts the exact post-crash image
        // from the per-core program order, which requires that no
        // variable is stored twice (coalescing would break the block
        // count) and battery-backed-buffer modes (where crash-drain
        // order is the persist order).
        std::vector<unsigned> stores(out->vars.size(), 0);
        for (const auto &th : out->threads) {
            for (const SrcOp &op : th) {
                if (op.kind == SrcKind::Store &&
                    ++stores[static_cast<unsigned>(op.var)] > 1) {
                    return ctx.fail(
                        "battery tests may store each variable once");
                }
            }
        }
        for (PersistMode m : out->modes) {
            if (m != PersistMode::BbbMemSide && m != PersistMode::BbbProcSide)
                return ctx.fail("battery tests run in bbb-mem-side/"
                                "bbb-proc-side only (drain order is "
                                "persist order there)");
        }
    }

    return true;
}

Program
lower(const Test &test, PersistMode mode)
{
    const bool pmem =
        mode == PersistMode::AdrPmem || mode == PersistMode::PmemStrict;
    Program prog;
    prog.threads.resize(test.threads.size());
    for (std::size_t t = 0; t < test.threads.size(); ++t) {
        for (const SrcOp &op : test.threads[t]) {
            auto &ops = prog.threads[t];
            switch (op.kind) {
              case SrcKind::Store:
                ops.push_back({MKind::Store, op.var, -1, op.val});
                if (mode == PersistMode::PmemStrict) {
                    ops.push_back({MKind::Flush, op.var, -1, 0});
                    ops.push_back({MKind::Fence, -1, -1, 0});
                }
                break;
              case SrcKind::Load:
                ops.push_back({MKind::Load, op.var, op.reg, 0});
                break;
              case SrcKind::Flush:
              case SrcKind::FlushOpt:
                if (pmem)
                    ops.push_back({MKind::Flush, op.var, -1, 0});
                break;
              case SrcKind::SFence:
                if (pmem)
                    ops.push_back({MKind::Fence, -1, -1, 0});
                break;
              case SrcKind::MFence:
                ops.push_back({MKind::Fence, -1, -1, 0});
                break;
            }
        }
    }
    return prog;
}

} // namespace litmus
} // namespace bbb
