#include "litmus/sim_driver.hh"

#include "api/system.hh"
#include "persist/palloc.hh"
#include "sim/logging.hh"

namespace bbb
{
namespace litmus
{

SystemConfig
litmusConfig(PersistMode mode)
{
    SystemConfig cfg;
    cfg.num_cores = kMaxThreads; // constant across tests
    cfg.mode = mode;
    // Small arrays keep per-node System construction cheap; the vars
    // (consecutive blocks) still land in distinct sets.
    cfg.l1d = CacheConfig{8_KiB, 2, 2};
    cfg.llc = CacheConfig{32_KiB, 8, 11};
    cfg.dram.size_bytes = 64_MiB;
    cfg.nvmm.size_bytes = 64_MiB;
    cfg.store_buffer.entries = 32;
    // Threshold 1.0: the drain engine never wakes for <= 8 buffered
    // stores, so the schedule alone decides when values move.
    cfg.bbpb.entries = 32;
    cfg.bbpb.drain_threshold = 1.0;
    // TSO: the model's FIFO store buffers are exact, and the crash
    // domain is the bbPB alone (the store buffer is volatile).
    cfg.relaxed_consistency = false;
    // run() is never called, so only the crash-time check fires.
    cfg.check_invariants = true;
    cfg.seed = 1;
    return cfg;
}

Addr
litmusVarAddr(const AddrMap &map, int var)
{
    BBB_ASSERT(var >= 0 && unsigned(var) < kMaxVars,
               "litmus var id out of range");
    return map.persistBase() + PersistentHeap::kHeaderBytes +
           std::uint64_t(var) * kBlockSize;
}

namespace
{

/** Holds the op each core has parked at the gate, if any. */
struct Gate : OpGate
{
    std::array<bool, kMaxThreads> parked{};
    std::array<MemOp, kMaxThreads> op{};

    void
    onParked(CoreId core, const MemOp &parked_op) override
    {
        BBB_ASSERT(core < kMaxThreads, "gated core id out of range");
        BBB_ASSERT(!parked[core], "core parked twice without a release");
        parked[core] = true;
        op[core] = parked_op;
    }
};

/** Shared registers the thread bodies write (read back post-quiesce). */
struct RegFile
{
    std::array<std::uint64_t, kMaxRegs> val{};
    std::array<bool, kMaxRegs> done{};
};

/** True if the op the machine parked matches the model's op. */
bool
opMatches(const MemOp &got, const MOp &expect, Addr addr)
{
    switch (expect.kind) {
      case MKind::Store:
        return got.kind == OpKind::Store && got.addr == addr &&
               got.size == 8 && got.data == expect.val;
      case MKind::Load:
        return got.kind == OpKind::Load && got.addr == addr &&
               got.size == 8;
      case MKind::Flush:
        return got.kind == OpKind::Flush &&
               blockAlign(got.addr) == addr;
      case MKind::Fence:
        return got.kind == OpKind::Fence;
    }
    return false;
}

} // namespace

SimResult
runSchedule(const Test &test, const Program &prog, PersistMode mode,
            const std::vector<Step> &steps, const FaultPlan *faults)
{
    SimResult res;
    SystemConfig cfg = litmusConfig(mode);
    System sys(cfg);
    if (faults)
        sys.setFaultPlan(*faults);

    std::array<Addr, kMaxVars> addr{};
    for (unsigned v = 0; v < test.vars.size(); ++v)
        addr[v] = litmusVarAddr(sys.addrMap(), int(v));

    Gate gate;
    RegFile regs;

    // The threads issue the source ops: the machine lowers them itself.
    for (unsigned t = 0; t < prog.numThreads(); ++t) {
        const std::vector<SrcOp> *ops = &test.threads[t];
        RegFile *rf = &regs;
        const std::array<Addr, kMaxVars> *va = &addr;
        sys.onThread(t, [ops, rf, va](ThreadContext &tc) {
            for (const SrcOp &op : *ops) {
                switch (op.kind) {
                  case SrcKind::Store:
                    tc.store64((*va)[op.var], op.val);
                    break;
                  case SrcKind::Load:
                    rf->val[op.reg] = tc.load64((*va)[op.var]);
                    rf->done[op.reg] = true;
                    break;
                  case SrcKind::Flush:
                  case SrcKind::FlushOpt:
                    tc.writeBack((*va)[op.var]);
                    break;
                  case SrcKind::SFence:
                    tc.persistBarrier();
                    break;
                  case SrcKind::MFence:
                    tc.fullFence();
                    break;
                }
            }
        });
    }

    sys.startGated(gate);

    auto fail = [&](std::string msg) {
        res.ok = false;
        res.error = std::move(msg);
    };

    // Run the event queue dry. With gated cores and manual drains the
    // queue empties once every released op (and its flush/WPQ wake) has
    // settled; the cap turns a stuck machine into a diagnosable error.
    auto settle = [&]() {
        constexpr std::uint64_t kCap = 1000000;
        std::uint64_t iters = 0;
        while (sys.eventQueue().step()) {
            if (++iters > kCap) {
                fail("event queue failed to settle (machine livelock?)");
                return false;
            }
        }
        return true;
    };

    if (!settle())
        return res;

    std::array<std::size_t, kMaxThreads> released{};
    for (std::size_t i = 0; res.ok && i < steps.size(); ++i) {
        Step s = steps[i];
        unsigned t = s.thread;
        std::string at = " at step " + std::to_string(i) + " (" +
                         stepName(s) + ") of schedule [" +
                         scheduleString(steps) + "]";
        if (t >= prog.numThreads()) {
            fail("schedule names thread " + std::to_string(t) +
                 " beyond the program" + at);
            break;
        }
        if (s.drain) {
            if (!sys.core(t).storeBuffer().retireOne()) {
                fail("store buffer empty on a drain step" + at +
                     " — the model says an entry should be buffered");
                break;
            }
            if (!settle())
                break;
            continue;
        }
        if (!gate.parked[t]) {
            fail("no op parked" + at +
                 " — the simulator thread is behind the model (stuck "
                 "on a wait the model does not have)");
            break;
        }
        // The parked op is checked against the model's lowered program:
        // a replayed schedule provably drives the ops it claims, and the
        // machine's lowering provably agrees with the model's.
        std::size_t idx = released[t];
        const MOp &expect = prog.threads[t][idx];
        Addr want = expect.var >= 0 ? addr[expect.var] : kBadAddr;
        if (!opMatches(gate.op[t], expect, want)) {
            fail("parked op does not match the program's op " +
                 std::to_string(idx) + at);
            break;
        }
        ++released[t];
        gate.parked[t] = false;
        sys.core(t).releasePending();
        if (!settle())
            break;
    }

    if (res.ok) {
        // Leaf detection: every program op released, every fiber
        // finished, every store buffer drained.
        res.completed = true;
        for (unsigned t = 0; t < prog.numThreads(); ++t) {
            if (released[t] != prog.threads[t].size() ||
                !sys.core(t).finished() ||
                !sys.core(t).storeBuffer().empty())
                res.completed = false;
        }
        if (res.completed) {
            for (unsigned v = 0; v < test.vars.size(); ++v)
                res.final_mem[v] = sys.peek64(addr[v]);
        }
    }

    // Crash even on a divergence: the report's drain still runs and the
    // caller may want the image for diagnostics.
    res.crash = sys.crashNow();
    PmemImage img = sys.pmemImage();
    for (unsigned v = 0; v < test.vars.size(); ++v)
        res.image[v] = img.read64(addr[v]);
    res.regs = regs.val;
    res.reg_done = regs.done;
    return res;
}

} // namespace litmus
} // namespace bbb
