/**
 * @file
 * The independent declarative checker the litmus harness compares the
 * simulator against.
 *
 * The model is an operational presentation of x86-TSO plus the
 * persistency semantics of each mode, deliberately *not* sharing any
 * code with the simulator:
 *
 *  - Each thread has a FIFO store buffer; a schedule step is either
 *    "issue thread t's next op" or "drain one entry of t's buffer".
 *    Loads forward from the issuing thread's own buffer, else read
 *    memory. Fences issue only on an empty buffer.
 *  - Memory keeps, per variable, the full retirement history (the
 *    coherence order — a total order per location) plus a *durability
 *    lower bound* `durmin`: the newest history index confirmed durable
 *    by a flush-then-fence pair (Px86). A flush captures the current
 *    history index; the next fence on that thread commits the captured
 *    indices into durmin.
 *
 * The model executes lower()'s program; the simulator executes the
 * source ops and lowers them itself, so each op the machine issues is
 * checked against the model's op for it. Because both are driven by
 * the *same* schedule, each prefix maps to exactly one model state, and
 * the harness compares outcomes per schedule:
 *
 *  - registers must match exactly (TSO with in-order cores is
 *    deterministic given the schedule);
 *  - a strict-mode crash image must equal `mem` exactly (persist order
 *    == volatile memory order — the paper's central claim);
 *  - a Px86-mode crash image may hold, per variable, any history value
 *    at or after durmin (flushed-but-unfenced and ADR-buffered values
 *    may or may not have landed; anything older than a fence-confirmed
 *    flush must not reappear).
 *
 * The "allowed outcome set" of a test is the union of these
 * per-schedule checks over every enumerated interleaving and crash
 * point.
 */

#ifndef BBB_LITMUS_MODEL_HH
#define BBB_LITMUS_MODEL_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "litmus/litmus.hh"

namespace bbb
{
namespace litmus
{

/** One schedule step: issue thread's next op, or drain one SB entry. */
struct Step
{
    std::uint8_t thread = 0;
    bool drain = false;

    bool
    operator==(const Step &o) const
    {
        return thread == o.thread && drain == o.drain;
    }
};

/** "0" for issue, "0d" for drain. */
std::string stepName(Step s);

/** Space-separated stepName()s; "(empty)" for the root prefix. */
std::string scheduleString(const std::vector<Step> &steps);

/** Parse a scheduleString() back (replay CLI). */
bool parseSchedule(const std::string &text, std::vector<Step> *out,
                   std::string *err);

/** The model state after a schedule prefix. */
struct ModelState
{
    std::array<std::uint8_t, kMaxThreads> pc{};
    /** Per-thread FIFO store buffer: (var, value). */
    std::array<std::vector<std::pair<int, std::uint64_t>>, kMaxThreads>
        sb;
    /** Last retired (coherent) value per variable. */
    std::array<std::uint64_t, kMaxVars> mem{};
    /** Retirement history per variable; hist[v][0] == 0 (initial). */
    std::array<std::vector<std::uint64_t>, kMaxVars> hist;
    /** Durability lower bound: index into hist confirmed durable. */
    std::array<std::uint32_t, kMaxVars> durmin{};
    /** Flushes issued but not yet fence-confirmed: (var, hist index). */
    std::array<std::vector<std::pair<int, std::uint32_t>>, kMaxThreads>
        pending_flush;
    std::array<std::uint64_t, kMaxRegs> regs{};
    std::array<bool, kMaxRegs> reg_done{};

    static ModelState initial(unsigned nvars);

    bool enabled(const Program &prog, Step s) const;

    /** Apply an enabled() step. */
    void apply(const Program &prog, Step s);

    /** Enabled steps in canonical order (issues then drains, by
     *  thread id) — the deterministic DFS exploration order. */
    std::vector<Step> enabledSteps(const Program &prog) const;

    /** True if the per-variable image value is allowed at this state
     *  under @p mode (strict: == mem; Px86: any hist index >= durmin). */
    bool imageValueAllowed(PersistMode mode, int var,
                           std::uint64_t value) const;

    /** Allowed image values for failure messages. */
    std::string allowedImageValues(PersistMode mode, int var) const;
};

/**
 * Conditional dependence of two steps enabled at @p state (for
 * partial-order reduction): same-thread steps are dependent; across
 * threads, two steps conflict iff they touch the same variable and at
 * least one of them is a drain (the only writer of shared memory).
 * Issue-issue pairs always commute: stores touch only the issuing
 * thread's buffer, loads/flushes only read, fences are thread-local.
 */
bool dependent(const Program &prog, const ModelState &state, Step a,
               Step b);

} // namespace litmus
} // namespace bbb

#endif // BBB_LITMUS_MODEL_HH
