/**
 * @file
 * Example: the full crash–recover–resume lifecycle over a persistent
 * hash map.
 *
 * For every persistency scheme and a series of crash points:
 *
 *   1. run the Table IV hashmap workload and fail power mid-run;
 *   2. hand the post-crash NVMM image to the RecoveryManager, which
 *      walks it, unlinks anything torn or dangling (graceful
 *      degradation — it never aborts, whatever the image holds), and
 *      restores the allocator frontiers;
 *   3. reboot a fresh machine seeded with the recovered image, resume
 *      the workload on it, and run a second life to completion;
 *   4. power down cleanly and verify the final image is consistent.
 *
 * The safe schemes (everything except adr-unsafe) must come back
 * `clean` — their flush-on-fail drain preserves persist order, so the
 * image needs no repairs. adr-unsafe demonstrates the degraded path:
 * its arbitrary writeback order tears the structure, recovery repairs
 * by discarding the damage, and the resumed life still finishes on the
 * survivors.
 *
 * Run: crash_recovery [OPS_PER_THREAD [CRASH_POINTS]]
 * Exit status: 0 when every safe mode recovers clean and every mode
 * resumes, 1 otherwise, 2 on bad usage (src/api/cli.hh).
 */

#include <cstdio>

#include "api/cli.hh"
#include "api/system.hh"
#include "recover/recovery_manager.hh"
#include "workloads/workload.hh"

using namespace bbb;

int
main(int argc, char **argv)
{
    std::uint64_t ops = 4000;
    std::uint64_t crash_points = 4;
    cli::Args args(argc, argv,
                   "usage: crash_recovery [OPS_PER_THREAD [CRASH_POINTS]]");
    while (args.next()) {
        if (!args.positional() || args.pos() > 2)
            args.unknown();
        else if (args.pos() == 1)
            ops = args.unsignedValue();
        else
            crash_points = args.unsignedValue();
    }

    WorkloadParams params;
    params.ops_per_thread = ops;
    params.initial_elements = 2000;

    std::printf("%-14s %10s %6s %8s | %-18s %8s %8s | %8s\n", "mode",
                "crash(us)", "torn", "dangling", "recovery", "repairs",
                "dropped", "resumed");

    bool failed = false;
    for (PersistMode mode :
         {PersistMode::AdrUnsafe, PersistMode::AdrPmem, PersistMode::Eadr,
          PersistMode::BbbMemSide, PersistMode::BbbProcSide}) {
        bool safe = mode != PersistMode::AdrUnsafe;
        for (std::uint64_t i = 1; i <= crash_points; ++i) {
            SystemConfig cfg;
            cfg.num_cores = 4;
            cfg.mode = mode;
            // Small caches + random replacement: structures overflow the
            // hierarchy, so unsafe ADR's eviction-order persistence has
            // every chance to tear (and the safe schemes must not).
            cfg.l1d.size_bytes = 4_KiB;
            cfg.llc.size_bytes = 16_KiB;
            cfg.l1d.repl = ReplPolicy::Random;
            cfg.llc.repl = ReplPolicy::Random;
            cfg.dram.size_bytes = 256_MiB;
            cfg.nvmm.size_bytes = 256_MiB;

            // Life 1: install and crash mid-run.
            System sys(cfg);
            auto wl = makeWorkload("hashmap", params);
            wl->install(sys);
            CrashReport rep =
                sys.runAndCrashAt(nsToTicks(40000ull * i * i));
            RecoveryResult raw = wl->checkRecovery(sys.pmemImage());

            // Recover: repair the image in place, never abort.
            BackingStore image = sys.image().clone();
            RecoveryManager mgr(image, sys.addrMap(), cfg.num_cores);
            RecoverOutcome rec = mgr.recover(*wl);

            // Life 2: reboot on the recovered image and run to the end.
            const char *resumed = "-";
            if (rec.resumable()) {
                SystemConfig cfg2 = cfg;
                cfg2.seed = cfg.seed + 1; // new keys for the second life
                System sys2(cfg2);
                reseedSystem(sys2, image, rec.frontiers);
                wl->resume(sys2);
                sys2.run();
                sys2.crashNow(); // clean power-down: drain everything
                RecoveryResult fin = wl->checkRecovery(sys2.pmemImage());
                bool ok = fin.consistent();
                resumed = ok ? "OK" : "CORRUPT";
                // adr-unsafe may legitimately tear again on the way
                // down; the safe schemes must not.
                if (safe && !ok)
                    failed = true;
            } else {
                // Graceful degradation means this must never happen.
                failed = true;
            }

            bool clean_required =
                safe && rec.status != RecoveryStatus::Clean;
            if (clean_required)
                failed = true;

            std::printf("%-14s %10.1f %6llu %8llu | %-18s %8llu %8llu | "
                        "%8s\n",
                        persistModeName(mode),
                        ticksToNs(rep.crash_tick) / 1000.0,
                        (unsigned long long)raw.torn,
                        (unsigned long long)raw.dangling,
                        recoveryStatusName(rec.status),
                        (unsigned long long)rec.repairs,
                        (unsigned long long)rec.dropped, resumed);
        }
    }

    std::printf("\nExpected: every safe scheme recovers clean and resumes"
                " OK at every crash point;\nadr-unsafe tears, recovery "
                "repairs by unlinking the damage, and the survivors\n"
                "still carry a full second life (graceful degradation).\n");
    return failed ? 1 : 0;
}
