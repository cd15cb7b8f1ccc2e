/**
 * @file
 * bbb-litmus: model-check the simulator against the declarative
 * persistency models over the built-in litmus corpus.
 *
 *   bbb-litmus                      # full corpus
 *   bbb-litmus --smoke              # the fast subset (ctest litmus_smoke)
 *   bbb-litmus --list               # corpus inventory
 *   bbb-litmus --tests sb,mp        # named subset
 *   bbb-litmus --modes bbb-mem-side,adr-pmem   # restrict modes
 *   bbb-litmus --por off            # disable partial-order reduction
 *   bbb-litmus --max-nodes N        # enumeration budget per config
 *   bbb-litmus --json PATH          # structured report
 *   bbb-litmus --replay "0 0d 1" --test sb --mode bbb-mem-side
 *
 * Modes are persistModeName() tokens: bbb-mem-side, bbb-proc-side,
 * eadr, adr-pmem, pmem-strict (adr-unsafe is not a litmus mode).
 *
 * Exit status: 0 all checks passed, 1 divergences found, 2 bad usage
 * (src/api/cli.hh), including an unknown mode, --test or --mode without
 * --replay, and a corpus flag with it.
 * BBB_JOB_TIMEOUT_S arms a watchdog that aborts a runaway enumeration
 * with the test name and the schedule prefix being explored.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "api/cli.hh"
#include "api/report.hh"
#include "litmus/corpus.hh"
#include "litmus/harness.hh"

using namespace bbb;
using namespace bbb::litmus;

namespace
{

const char *const kUsage =
    "usage: bbb-litmus [--smoke | --tests T[,T...] | --list] "
    "[--modes M[,M...]]\n"
    "                  [--por on|off] [--max-nodes N] [--json PATH]\n"
    "   or: bbb-litmus --replay SCHEDULE --test NAME --mode M";

void
listCorpus()
{
    std::printf("%-20s %-6s %-8s modes\n", "test", "smoke", "battery");
    for (const Test &t : corpus()) {
        std::printf("%-20s %-6s %-8s %s\n", t.name.c_str(),
                    t.smoke ? "yes" : "", t.battery ? "yes" : "",
                    joinList(t.modes, persistModeName).c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    HarnessOptions opts;
    bool list = false, smoke = false;
    std::vector<Test> tests;
    std::string json;
    // --replay SCHEDULE --test NAME --mode M, checked as they are read.
    std::vector<Step> steps;
    const Test *test = nullptr;
    PersistMode mode{};
    bool have_mode = false;
    // The last flag of each side, to reject one used with the other.
    int replay_at = 0, target_at = 0, corpus_at = 0;
    cli::Args args(argc, argv, kUsage);
    while (args.next()) {
        if (args.is("--replay")) {
            std::string err;
            if (!parseSchedule(args.value(), &steps, &err))
                args.fail("bad schedule: " + err);
            replay_at = args.pos();
        } else if (args.is("--test")) {
            std::string name = args.value();
            if (!(test = findTest(name)))
                args.fail("no corpus test named '" + name + "'");
            target_at = args.pos();
        } else if (args.is("--mode")) {
            mode = args.enumValue<PersistMode>(modeNameError);
            have_mode = true;
            target_at = args.pos();
        } else {
            corpus_at = args.pos();
            if (args.is("--list")) {
                list = true;
            } else if (args.is("--smoke")) {
                smoke = true;
            } else if (args.is("--tests")) {
                tests.clear();
                for (const std::string &n : cli::splitList(args.value())) {
                    const Test *t = findTest(n);
                    if (!t)
                        args.fail("no corpus test named '" + n + "'");
                    tests.push_back(*t);
                }
            } else if (args.is("--modes")) {
                opts.modes = args.enumListValue<PersistMode>(modeNameError);
            } else if (args.is("--por")) {
                opts.por = args.onOffValue();
            } else if (args.is("--max-nodes")) {
                opts.max_nodes = args.unsignedValue();
            } else if (args.is("--json")) {
                json = args.value();
            } else {
                args.unknown();
            }
        }
    }

    if (replay_at) {
        if (corpus_at)
            args.fail("not a --replay flag", corpus_at);
        if (!test || !have_mode)
            args.fail("needs --test NAME and --mode M", replay_at);
        bool ok = false;
        std::fputs(replaySchedule(*test, mode, steps, &ok).c_str(), stdout);
        return ok ? 0 : 1;
    }
    if (target_at)
        args.fail("only --replay takes it", target_at);
    if (list) {
        listCorpus();
        return 0;
    }
    if (tests.empty())
        tests = smoke ? smokeCorpus() : corpus();

    BenchReport report("bbb-litmus");
    report.setConfig("tests", std::uint64_t(tests.size()));
    report.setConfig("por", opts.por);
    report.setConfig("max_nodes", opts.max_nodes);

    HarnessResult total;
    for (const Test &t : tests) {
        HarnessResult r = checkTest(t, opts);
        MetricSnapshot m;
        m.setCount("litmus.nodes", r.nodes);
        m.setCount("litmus.leaves", r.leaves);
        m.setCount("litmus.pruned", r.pruned);
        m.setCount("litmus.sim_runs", r.sim_runs);
        m.setCount("litmus.battery_runs", r.battery_runs);
        m.setCount("litmus.violations", r.violations.size());
        report.addExperiment(t.name, m);
        total.merge(r);
        std::string verdict =
            r.ok() ? "ok"
                   : std::to_string(r.violations.size()) +
                         " VIOLATIONS";
        std::printf("%-20s %8llu nodes %8llu runs  %s\n",
                    t.name.c_str(),
                    (unsigned long long)r.nodes,
                    (unsigned long long)r.sim_runs,
                    verdict.c_str());
    }

    for (const Violation &v : total.violations)
        std::fprintf(stderr, "%s\n", v.format().c_str());

    MetricSnapshot &m = report.measured();
    m.setCount("litmus.tests", total.tests_run);
    m.setCount("litmus.configs", total.configs_run);
    m.setCount("litmus.nodes", total.nodes);
    m.setCount("litmus.leaves", total.leaves);
    m.setCount("litmus.pruned", total.pruned);
    m.setCount("litmus.sim_runs", total.sim_runs);
    m.setCount("litmus.battery_runs", total.battery_runs);
    m.setCount("litmus.violations", total.violations.size());
    report.emitIfRequested(json);

    std::printf("\n%u tests, %u configs, %llu schedules explored, "
                "%llu sim runs: %s\n",
                total.tests_run, total.configs_run,
                (unsigned long long)total.nodes,
                (unsigned long long)total.sim_runs,
                total.ok() ? "all checks passed"
                           : "DIVERGENCES FOUND");
    return total.ok() ? 0 : 1;
}
