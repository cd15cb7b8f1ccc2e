/**
 * @file
 * Quickstart: the paper's Figures 2 and 3, executable.
 *
 * Builds a persistent linked list on the simulated machine three ways:
 *
 *   1. Figure 2 verbatim (no flushes/fences) on a plain ADR machine —
 *      crash it mid-run and watch the head pointer dangle into an
 *      unpersisted node.
 *   2. Figure 3 (writeBack + persistBarrier added) on the same machine —
 *      the list survives any crash, at a performance cost.
 *   3. Figure 2 verbatim on a BBB machine — no persistency instructions,
 *      and the list still survives: commit order *is* persist order.
 *
 * Run: quickstart [APPENDS_PER_THREAD]
 * Exit status: 0 when the three outcomes are as described, 1 otherwise,
 * 2 on bad usage (src/api/cli.hh).
 */

#include <cstdio>

#include "api/cli.hh"
#include "api/system.hh"
#include "workloads/linkedlist.hh"

using namespace bbb;

namespace
{

struct Outcome
{
    Tick exec;
    RecoveryResult recovery;
};

Outcome
buildListAndCrash(PersistMode mode, std::uint64_t appends, Tick crash_at)
{
    SystemConfig cfg;
    cfg.num_cores = 2;
    cfg.l1d.size_bytes = 8_KiB;
    cfg.llc.size_bytes = 32_KiB;
    cfg.dram.size_bytes = 64_MiB;
    cfg.nvmm.size_bytes = 64_MiB;
    cfg.mode = mode;
    // Random replacement makes the unsafe variant fail fast (writeback
    // order decorrelates from program order).
    cfg.l1d.repl = ReplPolicy::Random;
    cfg.llc.repl = ReplPolicy::Random;

    System sys(cfg);
    WorkloadParams params;
    params.ops_per_thread = appends;
    params.initial_elements = 0;
    LinkedListWorkload list(params);
    list.install(sys);
    CrashReport rep = sys.runAndCrashAt(crash_at);

    return {rep.crash_tick, list.checkRecovery(sys.pmemImage())};
}

void
report(const char *label, const Outcome &o)
{
    std::printf("%-34s crash@%8.1fus  nodes recovered: %6llu  "
                "torn: %llu  dangling: %llu  -> %s\n",
                label, ticksToNs(o.exec) / 1000.0,
                (unsigned long long)o.recovery.intact,
                (unsigned long long)o.recovery.torn,
                (unsigned long long)o.recovery.dangling,
                o.recovery.consistent() ? "CONSISTENT" : "CORRUPT");
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t appends = 20000;
    cli::Args args(argc, argv, "usage: quickstart [APPENDS_PER_THREAD]");
    while (args.next()) {
        if (!args.positional() || args.pos() > 1)
            args.unknown();
        else
            appends = args.unsignedValue();
    }
    Tick crash_at = nsToTicks(120000); // mid-run

    std::printf("Appending %llu nodes per thread, crashing mid-run.\n\n",
                (unsigned long long)appends);

    // Try several crash points for the unsafe variant; persist-order
    // violations are intermittent (that is exactly why they are painful
    // to debug, Section II-A).
    bool corrupt_seen = false;
    Outcome worst{};
    for (int i = 1; i <= 5; ++i) {
        Outcome o = buildListAndCrash(PersistMode::AdrUnsafe, appends,
                                      crash_at * i / 3);
        if (!o.recovery.consistent()) {
            corrupt_seen = true;
            worst = o;
            break;
        }
        worst = o;
    }
    report("Fig. 2 on ADR (no barriers):", worst);
    if (corrupt_seen) {
        std::printf("   ^ the head pointer persisted before the node it "
                    "points to: the list is lost.\n");
    }

    Outcome pmem =
        buildListAndCrash(PersistMode::AdrPmem, appends, crash_at);
    report("Fig. 3 on ADR (clwb + sfence):", pmem);

    Outcome bbb =
        buildListAndCrash(PersistMode::BbbMemSide, appends, crash_at);
    report("Fig. 2 on BBB (no barriers!):", bbb);

    std::printf("\nBBB recovered %llu nodes where PMEM recovered %llu in "
                "the same wall-clock window:\n"
                "strict persistency without the flush/fence tax.\n",
                (unsigned long long)bbb.recovery.intact,
                (unsigned long long)pmem.recovery.intact);
    return corrupt_seen && pmem.recovery.consistent() &&
                   bbb.recovery.consistent()
               ? 0
               : 1;
}
