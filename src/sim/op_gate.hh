/**
 * @file
 * Deterministic schedule control for the event kernel.
 *
 * An OpGate turns the free-running cores into a stepwise machine: once
 * System::startGated() installs a gate, every operation a thread issues
 * is *parked* instead of executing. The gate is told which core parked
 * and which op it parked, and the controller (the litmus schedule
 * runner) decides — in whatever order its schedule dictates — when to
 * call Core::releasePending() to let the op execute. Between releases
 * the controller steps the event queue until the core parks its next op
 * (or finishes), so exactly one program-order operation is in flight
 * per release.
 *
 * The hook sits in the core's fiber resume, after the op is issued and
 * before it executes, so execution order — and therefore every
 * architectural outcome — is wholly runner-chosen.
 *
 * This header also hosts the litmus mutation switch: the mutation-kill
 * self-checks seed one deliberate ordering bug behind the
 * BBB_LITMUS_MUTATE environment variable and assert that the harness
 * fails. The cores, store buffers and bbPBs read the switch once, when
 * they are constructed, so a test sets it before it builds the machines
 * of a run.
 */

#ifndef BBB_SIM_OP_GATE_HH
#define BBB_SIM_OP_GATE_HH

#include <cstdlib>
#include <cstring>

#include "sim/types.hh"

namespace bbb
{

struct MemOp;

/** Controller interface for gated (schedule-driven) cores. */
class OpGate
{
  public:
    virtual ~OpGate() = default;

    /**
     * Core @p core has parked @p op and waits for
     * Core::releasePending(). Called in simulator (commit) context;
     * @p op stays valid until that release.
     */
    virtual void onParked(CoreId core, const MemOp &op) = 0;
};

/**
 * True if BBB_LITMUS_MUTATE names @p name: the corresponding seeded
 * ordering bug is active. Used only by the mutation-kill self-checks.
 * It costs a getenv, so callers read it at construction, not per op:
 * under PmemStrict every persisting store flushes.
 */
inline bool
litmusMutation(const char *name)
{
    const char *env = std::getenv("BBB_LITMUS_MUTATE");
    return env && std::strcmp(env, name) == 0;
}

} // namespace bbb

#endif // BBB_SIM_OP_GATE_HH
