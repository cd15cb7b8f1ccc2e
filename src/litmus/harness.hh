/**
 * @file
 * The litmus model checker: enumerate every schedule of a test, drive
 * the simulator through each one, and compare every prefix's outcome
 * (registers + post-crash image) against the declarative model.
 *
 * Checks per prefix, one judge shared by the checker and --replay (see
 * src/litmus/model.hh for the contract):
 *  - lockstep drive: the schedule must be executable (an op parked
 *    exactly when the model says one is, matching the program's op);
 *  - registers: completed loads and their values match the model
 *    exactly;
 *  - crash image: strict modes must equal the model's memory exactly;
 *    Px86 modes must hold a per-variable history value at or after the
 *    fence-confirmed durability bound;
 *  - fault-free crash sanity: no sacrificed blocks, battery never
 *    exhausted, oldest-first prefix oracle intact;
 *  - leaves: the machine really finished, and coherent memory equals
 *    the model's.
 *
 * `sometimes` witnesses assert reachability so a checker that explores
 * nothing cannot be vacuously green. Battery tests additionally sweep
 * an undersized crash battery over every drain prefix length at every
 * leaf and demand the *exact* k-item cut image.
 *
 * Every divergence carries a replayable schedule string
 * (`bbb-litmus --replay "<steps>" --test NAME --mode M`).
 */

#ifndef BBB_LITMUS_HARNESS_HH
#define BBB_LITMUS_HARNESS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "litmus/enumerate.hh"
#include "litmus/sim_driver.hh"

namespace bbb
{
namespace litmus
{

struct HarnessOptions
{
    bool por = true;
    std::uint64_t max_nodes = 200000;
    /** Stop checking a (test, mode) run past this many
     *  violations; a summary violation notes the truncation. */
    unsigned max_violations_per_run = 8;
    /** Restrict to the modes listed here (empty: the test's own). */
    std::vector<Mode> modes;
    /** Test instrumentation: runs before every node visit, ahead of
     *  the BBB_JOB_TIMEOUT_S check (lets a test burn wall clock to
     *  prove the watchdog fires). */
    std::function<void()> visit_hook;
};

/** One divergence, with everything needed to reproduce it. */
struct Violation
{
    std::string test;
    Mode mode = Mode::Bbb;
    std::string schedule; ///< scheduleString() of the failing prefix
    std::string detail;

    std::string format() const;
};

/** Aggregate result of a corpus (or single-test) run. */
struct HarnessResult
{
    std::vector<Violation> violations;
    unsigned tests_run = 0;
    unsigned configs_run = 0; ///< (test, mode) combinations
    std::uint64_t nodes = 0;
    std::uint64_t leaves = 0;
    std::uint64_t pruned = 0;
    std::uint64_t sim_runs = 0;
    std::uint64_t battery_runs = 0;

    bool ok() const { return violations.empty(); }
    void merge(const HarnessResult &o);
};

/** Model-check one test across its modes. */
HarnessResult checkTest(const Test &test, const HarnessOptions &opts);

/** Model-check a corpus; results merge in order. */
HarnessResult checkCorpus(const std::vector<Test> &tests,
                          const HarnessOptions &opts);

/**
 * Re-run one schedule prefix of @p test under @p mode through the same
 * per-prefix checks the checker runs (battery sweep included) and
 * return a human-readable report: register and image values, then one
 * `<< MISMATCH` line per failed check. @p ok is set false if any check
 * fails (or the schedule is not a reachable prefix).
 */
std::string replaySchedule(const Test &test, Mode mode,
                           const std::vector<Step> &steps, bool *ok);

} // namespace litmus
} // namespace bbb

#endif // BBB_LITMUS_HARNESS_HH
