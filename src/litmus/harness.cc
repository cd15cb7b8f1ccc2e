#include "litmus/harness.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "api/experiment.hh"
#include "energy/energy_model.hh"
#include "sim/logging.hh"

namespace bbb
{
namespace litmus
{

std::string
Violation::format() const
{
    std::string s = test + "/" + persistModeName(mode) + " schedule [" +
                    schedule + "]: " + detail;
    // "(any)" (missing witness) and abort markers have no single
    // schedule to replay.
    if (!schedule.empty() && schedule != "(any)" &&
        schedule != "(empty)") {
        s += "\n  replay: bbb-litmus --replay \"" + schedule +
             "\" --test " + test + " --mode " + persistModeName(mode);
    }
    return s;
}

void
HarnessResult::merge(const HarnessResult &o)
{
    violations.insert(violations.end(), o.violations.begin(),
                      o.violations.end());
    tests_run += o.tests_run;
    configs_run += o.configs_run;
    nodes += o.nodes;
    leaves += o.leaves;
    pruned += o.pruned;
    sim_runs += o.sim_runs;
    battery_runs += o.battery_runs;
}

namespace
{

/**
 * BBB_JOB_TIMEOUT_S watchdog: instead of a hung (or merely huge)
 * enumeration silently eating a CI job's timeout, die with the exact
 * test, configuration, and schedule prefix being explored.
 */
struct Watchdog
{
    std::chrono::steady_clock::time_point deadline{};
    bool enabled = false;

    static Watchdog
    fromEnv()
    {
        Watchdog w;
        long secs = jobTimeoutSeconds();
        if (secs == 0)
            return w;
        w.enabled = true;
        w.deadline = std::chrono::steady_clock::now() +
                     std::chrono::seconds(secs);
        return w;
    }

    void
    check(const std::string &test, PersistMode mode, std::uint64_t nodes,
          const std::vector<Step> &schedule) const
    {
        if (!enabled || std::chrono::steady_clock::now() < deadline)
            return;
        // A runaway enumeration is a finding, not bad usage: exit 1,
        // where fatal() would exit 2.
        std::fprintf(stderr,
                     "litmus watchdog: BBB_JOB_TIMEOUT_S expired in test %s "
                     "(%s) after %llu nodes; exploring prefix [%s]\n",
                     test.c_str(), persistModeName(mode),
                     (unsigned long long)nodes,
                     scheduleString(schedule).c_str());
        std::exit(1);
    }
};

std::string
u64(std::uint64_t v)
{
    return std::to_string(v);
}

/** The persist order the strict crash drain must honour: each core's
 *  persisting stores in program order, cores concatenated in id order
 *  (CrashEngine walks per-core bbPB buffers in core order; within one
 *  core FCFS allocation == TSO retirement == program order). Valid for
 *  battery tests only, where each variable is stored at most once. */
std::vector<std::pair<int, std::uint64_t>>
batteryPersistOrder(const Program &prog)
{
    std::vector<std::pair<int, std::uint64_t>> order;
    for (const auto &thread : prog.threads) {
        for (const MOp &op : thread) {
            if (op.kind == MKind::Store)
                order.emplace_back(op.var, op.val);
        }
    }
    return order;
}

/**
 * Undersized-battery sweep at a leaf: with budget for exactly k items,
 * the image must be the exact k-item cut of the strict persist order —
 * not one block more, less, or reordered. Appends one finding per
 * failed check to @p findings and counts its runs in @p runs.
 */
void
batterySweep(const Test &test, const Program &prog, PersistMode mode,
             const std::vector<Step> &sch, std::uint64_t *runs,
             std::vector<std::string> &findings)
{
    auto order = batteryPersistOrder(prog);
    const double item_j = EnergyConstants{}.l1BlockJ();
    for (std::size_t k = 0; k <= order.size(); ++k) {
        ++*runs;
        FaultPlan plan;
        plan.battery_j = (double(k) + 0.5) * item_j;
        SimResult sim = runSchedule(test, prog, mode, sch, &plan);
        std::string tag = "battery k=" + std::to_string(k) + ": ";
        if (!sim.ok) {
            findings.push_back(tag + sim.error);
            continue;
        }
        bool should_exhaust = k < order.size();
        if (sim.crash.battery_exhausted != should_exhaust)
            findings.push_back(tag + "battery_exhausted=" +
                               (sim.crash.battery_exhausted ? "true"
                                                            : "false") +
                               ", expected the opposite");
        std::uint64_t want_lost = order.size() - k;
        if (sim.crash.sacrificed_blocks != want_lost)
            findings.push_back(tag + "sacrificed " +
                               u64(sim.crash.sacrificed_blocks) +
                               " blocks, expected " + u64(want_lost));
        if (!sim.crash.drain_prefix_ok)
            findings.push_back(tag + "drain prefix oracle violated");
        std::array<std::uint64_t, kMaxVars> want{};
        for (std::size_t i = 0; i < k; ++i)
            want[order[i].first] = order[i].second;
        for (unsigned v = 0; v < test.vars.size(); ++v) {
            if (sim.image[v] != want[v]) {
                findings.push_back(tag + "image " + test.vars[v] + "=" +
                                   u64(sim.image[v]) +
                                   ", expected exact prefix value " +
                                   u64(want[v]));
            }
        }
    }
}

/**
 * The per-prefix judge the checker and --replay share: compare @p sim,
 * the simulator's run of @p schedule, against @p model, the model state
 * after it, and return one finding per failed check (empty: the
 * simulator matches the model on this prefix). Leaves of battery tests
 * in bbb/procside modes also run the undersized-battery sweep, counted
 * in @p battery_runs.
 */
std::vector<std::string>
judgePrefix(const Test &test, const Program &prog, PersistMode mode,
            const ModelState &model, const std::vector<Step> &schedule,
            bool is_leaf, const SimResult &sim,
            std::uint64_t *battery_runs)
{
    std::vector<std::string> findings;
    if (!sim.ok) {
        findings.push_back(sim.error);
        return findings;
    }

    for (unsigned r = 0; r < test.regs.size(); ++r) {
        if (sim.reg_done[r] != model.reg_done[r]) {
            findings.push_back("register " + test.regs[r] +
                               (sim.reg_done[r]
                                    ? " written by the simulator but "
                                      "not the model"
                                    : " written by the model but not "
                                      "the simulator"));
        } else if (sim.reg_done[r] && sim.regs[r] != model.regs[r]) {
            findings.push_back("register " + test.regs[r] + ": sim " +
                               u64(sim.regs[r]) + " != model " +
                               u64(model.regs[r]));
        }
    }

    for (unsigned v = 0; v < test.vars.size(); ++v) {
        if (!model.imageValueAllowed(mode, int(v), sim.image[v])) {
            findings.push_back("post-crash image " + test.vars[v] + "=" +
                               u64(sim.image[v]) + " not in allowed set " +
                               model.allowedImageValues(mode, int(v)));
        }
    }

    // Fault-free crash: the drain must be total and ordered.
    if (sim.crash.battery_exhausted || sim.crash.sacrificed_blocks != 0)
        findings.push_back("fault-free crash sacrificed " +
                           u64(sim.crash.sacrificed_blocks) + " block(s)");
    if (!sim.crash.drain_prefix_ok)
        findings.push_back("crash drain violated the oldest-first prefix");

    if (is_leaf != sim.completed) {
        findings.push_back(is_leaf ? "model finished but the simulator "
                                     "has work left"
                                   : "simulator finished but the model "
                                     "has work left");
    } else if (is_leaf) {
        for (unsigned v = 0; v < test.vars.size(); ++v) {
            if (sim.final_mem[v] != model.mem[v]) {
                findings.push_back("final memory " + test.vars[v] +
                                   ": sim " + u64(sim.final_mem[v]) +
                                   " != model " + u64(model.mem[v]));
            }
        }
    }

    if (is_leaf && test.battery &&
        (mode == PersistMode::BbbMemSide ||
         mode == PersistMode::BbbProcSide))
        batterySweep(test, prog, mode, schedule, battery_runs, findings);
    return findings;
}

struct RunContext
{
    const Test &test;
    const Program &prog;
    PersistMode mode;
    const HarnessOptions &opts;
    const Watchdog &watchdog;
    HarnessResult &res;

    unsigned run_violations = 0;
    std::vector<bool> witness_seen{};

    void
    addViolation(const std::vector<Step> &schedule, std::string detail)
    {
        ++run_violations;
        if (run_violations == opts.max_violations_per_run + 1) {
            res.violations.push_back(
                {test.name, mode, scheduleString(schedule),
                 "further violations in this configuration suppressed"});
            return;
        }
        if (run_violations > opts.max_violations_per_run)
            return;
        res.violations.push_back({test.name, mode,
                                  scheduleString(schedule),
                                  std::move(detail)});
    }

    /** Per-prefix lockstep comparison; returns false past the
     *  violation cap (aborts this configuration's enumeration). */
    bool
    visit(const ModelState &model, const std::vector<Step> &schedule,
          bool is_leaf)
    {
        if (opts.visit_hook)
            opts.visit_hook();
        watchdog.check(test.name, mode, res.nodes + 1, schedule);
        ++res.sim_runs;
        SimResult sim = runSchedule(test, prog, mode, schedule);
        for (std::string &finding :
             judgePrefix(test, prog, mode, model, schedule, is_leaf, sim,
                         &res.battery_runs))
            addViolation(schedule, std::move(finding));
        if (sim.ok)
            noteWitnesses(sim, is_leaf);
        return run_violations <= opts.max_violations_per_run;
    }

    void
    noteWitnesses(const SimResult &sim, bool is_leaf)
    {
        for (std::size_t w = 0; w < test.witnesses.size(); ++w) {
            const Witness &wit = test.witnesses[w];
            if (witness_seen[w])
                continue;
            if (!wit.modes.empty() &&
                std::find(wit.modes.begin(), wit.modes.end(), mode) ==
                    wit.modes.end())
                continue;
            bool match = true;
            if (wit.on_crash) {
                for (const auto &kv : wit.vars)
                    match = match && sim.image[kv.first] == kv.second;
            } else {
                match = is_leaf;
                for (const auto &kv : wit.regs)
                    match = match && sim.reg_done[kv.first] &&
                            sim.regs[kv.first] == kv.second;
            }
            if (match)
                witness_seen[w] = true;
        }
    }
};

} // namespace

HarnessResult
checkTest(const Test &test, const HarnessOptions &opts)
{
    HarnessResult res;
    ++res.tests_run;
    Watchdog watchdog = Watchdog::fromEnv();

    for (PersistMode mode : test.modes) {
        if (!opts.modes.empty() &&
            std::find(opts.modes.begin(), opts.modes.end(), mode) ==
                opts.modes.end())
            continue;
        Program prog = lower(test, mode);
        ++res.configs_run;
        RunContext ctx{test, prog, mode, opts, watchdog, res};
        ctx.witness_seen.assign(test.witnesses.size(), false);

        EnumOptions eopts;
        eopts.por = opts.por;
        eopts.max_nodes = opts.max_nodes;
        EnumStats stats;
        enumerate(prog, eopts, &stats,
                  [&](const ModelState &state,
                      const std::vector<Step> &schedule, bool is_leaf) {
                      return ctx.visit(state, schedule, is_leaf);
                  });
        res.nodes += stats.nodes;
        res.leaves += stats.leaves;
        res.pruned += stats.pruned;
        if (stats.aborted) {
            res.violations.push_back(
                {test.name, mode, stats.abort_prefix,
                 "enumeration aborted at max_nodes=" +
                     u64(eopts.max_nodes) +
                     " — raise --max-nodes or shrink the test"});
            continue;
        }

        for (std::size_t w = 0; w < test.witnesses.size(); ++w) {
            const Witness &wit = test.witnesses[w];
            if (!wit.modes.empty() &&
                std::find(wit.modes.begin(), wit.modes.end(), mode) ==
                    wit.modes.end())
                continue;
            if (!ctx.witness_seen[w]) {
                res.violations.push_back(
                    {test.name, mode, "(any)",
                     "witness never observed: " + wit.text});
            }
        }
    }
    return res;
}

HarnessResult
checkCorpus(const std::vector<Test> &tests, const HarnessOptions &opts)
{
    HarnessResult res;
    for (const Test &t : tests) {
        HarnessResult one = checkTest(t, opts);
        res.merge(one);
    }
    return res;
}

std::string
replaySchedule(const Test &test, PersistMode mode,
               const std::vector<Step> &steps, bool *ok)
{
    if (!test.runsIn(mode)) {
        *ok = false;
        return "test '" + test.name + "' does not run in mode " +
               persistModeName(mode) + "\n";
    }
    Program prog = lower(test, mode);

    ModelState model = ModelState::initial(kMaxVars);
    for (std::size_t i = 0; i < steps.size(); ++i) {
        if (!model.enabled(prog, steps[i])) {
            *ok = false;
            return "schedule step " + std::to_string(i) + " (" +
                   stepName(steps[i]) +
                   ") is not enabled in the model — not a reachable "
                   "prefix of this test's " +
                   persistModeName(mode) + " lowering\n";
        }
        model.apply(prog, steps[i]);
    }
    bool is_leaf = model.enabledSteps(prog).empty();

    SimResult sim = runSchedule(test, prog, mode, steps);
    std::uint64_t battery_runs = 0;
    std::vector<std::string> findings = judgePrefix(
        test, prog, mode, model, steps, is_leaf, sim, &battery_runs);
    *ok = findings.empty();

    std::string out =
        "test " + test.name + " mode " + persistModeName(mode) + "\n";
    out += "schedule [" + scheduleString(steps) + "]" +
           (is_leaf ? " (complete)" : " (prefix; crash point)") + "\n";
    if (sim.ok) {
        for (unsigned r = 0; r < test.regs.size(); ++r) {
            out += "  reg " + test.regs[r] + ": sim " +
                   (sim.reg_done[r] ? u64(sim.regs[r]) : "(not written)") +
                   ", model " +
                   (model.reg_done[r] ? u64(model.regs[r])
                                      : "(not written)") +
                   "\n";
        }
        for (unsigned v = 0; v < test.vars.size(); ++v) {
            out += "  image " + test.vars[v] + ": sim " +
                   u64(sim.image[v]) + ", allowed " +
                   model.allowedImageValues(mode, int(v)) + "\n";
        }
    }
    if (battery_runs)
        out += "  battery sweep: " + u64(battery_runs) +
               " undersized-battery runs\n";
    for (const std::string &finding : findings)
        out += "  " + finding + "  << MISMATCH\n";
    out += *ok ? "OK: simulator matches the model on this prefix\n"
               : "DIVERGENCE: see mismatches above\n";
    return out;
}

} // namespace litmus
} // namespace bbb
