/**
 * @file
 * Litmus-test DSL: small multi-threaded programs over a handful of
 * persistent variables, model-checked exhaustively against the
 * declarative persistency models (docs/architecture.md, "Litmus
 * harness").
 *
 * A test is written in a tiny text format:
 *
 *   test sb                      # name (required, first line)
 *   smoke                        # member of the fast ctest subset
 *   modes bbb-mem-side eadr      # default: all modes but adr-pmem
 *   battery                      # run the battery-prefix sweep too
 *   t0: st x 1; ld y r0          # threads t0..t3, <= 8 ops each
 *   t1: st y 1; ld x r1
 *   sometimes final r0=0 r1=0    # reachability witness on final regs
 *   sometimes [adr-pmem] crash y=1 x=0   # witness on a post-crash image
 *
 * Ops: `st VAR VAL`, `ld VAR REG`, `flush VAR` (clwb), `flushopt VAR`
 * (same timing model as flush), `sfence` (persist barrier), `mfence`
 * (full fence). Variables are identifiers bound to distinct cache
 * blocks in the persistent range, zero-initialised; registers r0..r15
 * are global and each written by exactly one load. `#` starts a
 * comment.
 *
 * `sometimes` clauses are liveness witnesses: the named partial outcome
 * must be *reachable* in every listed mode (default: every mode the
 * test runs). They keep the harness honest — a checker that explores
 * nothing is vacuously green without them.
 */

#ifndef BBB_LITMUS_LITMUS_HH
#define BBB_LITMUS_LITMUS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hh"

namespace bbb
{
namespace litmus
{

constexpr unsigned kMaxThreads = 4;
constexpr unsigned kMaxOpsPerThread = 8;
constexpr unsigned kMaxVars = 8;
constexpr unsigned kMaxRegs = 16;

/**
 * Why @p name is not a litmus mode ("" if it is one): every
 * persistModeName() token but adr-unsafe, which promises no persistency
 * for the model to check.
 */
std::string modeNameError(const std::string &name);

/** True if @p m promises strict persistency (post-crash image ==
 *  volatile memory order), false for the Px86 (flush/fence) models. */
bool isStrictMode(PersistMode m);

/** Source-level op kinds (before mode lowering). */
enum class SrcKind : std::uint8_t
{
    Store,
    Load,
    Flush,    ///< clwb
    FlushOpt, ///< clflushopt; same machine op in this model
    SFence,   ///< persist barrier
    MFence,   ///< full fence
};

/** One source op. Unused fields are -1/0. */
struct SrcOp
{
    SrcKind kind;
    int var = -1;
    int reg = -1;
    std::uint64_t val = 0;
};

/** A `sometimes` reachability witness. */
struct Witness
{
    /** True: matches a post-crash image at any prefix. False: matches
     *  the final registers of a completed schedule. */
    bool on_crash = false;
    /** Modes the witness applies to; empty = every mode the test runs. */
    std::vector<PersistMode> modes;
    /** Partial assignment over registers (final witnesses). */
    std::vector<std::pair<int, std::uint64_t>> regs;
    /** Partial assignment over variables (crash witnesses). */
    std::vector<std::pair<int, std::uint64_t>> vars;
    /** Source text, for failure messages. */
    std::string text;
};

/** One parsed litmus test. */
struct Test
{
    std::string name;
    std::vector<std::vector<SrcOp>> threads;
    std::vector<std::string> vars;  ///< names, index = variable id
    std::vector<std::string> regs;  ///< names, index = register id
    std::vector<PersistMode> modes; ///< modes this test runs in
    bool battery = false;           ///< also run the battery-prefix sweep
    bool smoke = false;             ///< member of the fast subset
    std::vector<Witness> witnesses;

    /** True if @p m is in modes. */
    bool runsIn(PersistMode m) const;
};

/**
 * Parse one test from DSL text. On failure returns false and sets
 * @p err (never fatal()s — the CLI surfaces the message).
 */
bool parseTest(const std::string &text, Test *out, std::string *err);

/** Machine-level op kinds after mode lowering. */
enum class MKind : std::uint8_t
{
    Store,
    Load,
    Flush,
    Fence,
};

/** One lowered op. */
struct MOp
{
    MKind kind;
    int var = -1;
    int reg = -1;
    std::uint64_t val = 0;
};

/** A mode-lowered program: the ops the declarative model executes,
 *  which the simulator's own lowering must reproduce op for op. */
struct Program
{
    std::vector<std::vector<MOp>> threads;

    unsigned numThreads() const
    {
        return static_cast<unsigned>(threads.size());
    }
};

/**
 * The model's lowering of @p test for @p mode, written independently of
 * the machine's (ThreadContext::store/writeBack/persistBarrier), which
 * the checker compares against it at every step:
 *  - PmemStrict expands every store into st; flush; sfence (the
 *    strict-persistency-on-PMEM baseline of Section II).
 *  - AdrPmem / PmemStrict keep programmer flush/flushopt/sfence ops.
 *  - The strict modes (bbb-mem-side/bbb-proc-side/eadr) drop flushes
 *    and sfences — Table I: no persist instructions are needed, and the
 *    machine does not execute them.
 *  - mfence survives every mode (it is a consistency fence).
 */
Program lower(const Test &test, PersistMode mode);

} // namespace litmus
} // namespace bbb

#endif // BBB_LITMUS_LITMUS_HH
