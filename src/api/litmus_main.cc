/**
 * @file
 * bbb-litmus: model-check the simulator against the declarative
 * persistency models over the built-in litmus corpus.
 *
 *   bbb-litmus                      # full corpus
 *   bbb-litmus --smoke              # the fast subset (ctest litmus_smoke)
 *   bbb-litmus --list               # corpus inventory
 *   bbb-litmus --tests sb,mp        # named subset
 *   bbb-litmus --modes bbb,pmem     # restrict persistency modes
 *   bbb-litmus --por off            # disable partial-order reduction
 *   bbb-litmus --max-nodes N        # enumeration budget per config
 *   bbb-litmus --json PATH          # structured report
 *   bbb-litmus --replay "0 0d 1" --test sb --mode bbb
 *
 * Exit status: 0 all checks passed, 1 divergences found, 2 bad usage.
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

void
listCorpus()
{
    std::printf("%-20s %-6s %-8s modes\n", "test", "smoke", "battery");
    for (const Test &t : corpus()) {
        std::string modes;
        for (Mode m : t.modes) {
            if (!modes.empty())
                modes += ",";
            modes += modeName(m);
        }
        std::printf("%-20s %-6s %-8s %s\n", t.name.c_str(),
                    t.smoke ? "yes" : "", t.battery ? "yes" : "",
                    modes.c_str());
    }
}

int
replayMain(int argc, char **argv)
{
    std::string sched = cli::stringOpt(argc, argv, "--replay");
    std::string name = cli::stringOpt(argc, argv, "--test");
    std::string mode_name = cli::stringOpt(argc, argv, "--mode");
    if (name.empty() || mode_name.empty()) {
        std::fprintf(stderr,
                     "error: --replay needs --test NAME and --mode M\n");
        return 2;
    }
    const Test *test = findTest(name);
    if (!test) {
        std::fprintf(stderr, "error: no corpus test named '%s'\n",
                     name.c_str());
        return 2;
    }
    Mode mode;
    if (!modeFromName(mode_name, &mode)) {
        std::fprintf(stderr, "error: unknown mode '%s'\n",
                     mode_name.c_str());
        return 2;
    }
    std::vector<Step> steps;
    std::string err;
    if (!parseSchedule(sched, &steps, &err)) {
        std::fprintf(stderr, "error: bad schedule '%s': %s\n",
                     sched.c_str(), err.c_str());
        return 2;
    }
    bool ok = false;
    std::string report = replaySchedule(*test, mode, steps, &ok);
    std::fputs(report.c_str(), stdout);
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    HarnessOptions opts;
    opts.por = cli::onOffArg(argc, argv, "--por", true);
    std::string max_nodes = cli::stringOpt(argc, argv, "--max-nodes");
    if (!max_nodes.empty())
        opts.max_nodes = cli::unsignedArg("--max-nodes", max_nodes);
    for (const std::string &tok :
         cli::splitList(cli::stringOpt(argc, argv, "--modes"))) {
        Mode m;
        if (!modeFromName(tok, &m)) {
            std::fprintf(stderr, "error: unknown mode '%s'\n",
                         tok.c_str());
            return 2;
        }
        opts.modes.push_back(m);
    }

    if (cli::hasFlag(argc, argv, "--list")) {
        listCorpus();
        return 0;
    }
    if (cli::hasFlag(argc, argv, "--replay"))
        return replayMain(argc, argv);

    std::vector<Test> tests;
    std::string names = cli::stringOpt(argc, argv, "--tests");
    if (!names.empty()) {
        for (const std::string &n : cli::splitList(names)) {
            const Test *t = findTest(n);
            if (!t) {
                std::fprintf(stderr,
                             "error: no corpus test named '%s'\n",
                             n.c_str());
                return 2;
            }
            tests.push_back(*t);
        }
    } else if (cli::hasFlag(argc, argv, "--smoke")) {
        tests = smokeCorpus();
    } else {
        tests = corpus();
    }

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
    report.emitIfRequested(cli::jsonPathArg(argc, argv));

    std::printf("\n%u tests, %u configs, %llu schedules explored, "
                "%llu sim runs: %s\n",
                total.tests_run, total.configs_run,
                (unsigned long long)total.nodes,
                (unsigned long long)total.sim_runs,
                total.ok() ? "all checks passed"
                           : "DIVERGENCES FOUND");
    return total.ok() ? 0 : 1;
}
