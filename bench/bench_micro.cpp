/**
 * @file
 * Google-benchmark microbenchmarks of the simulator substrate: event
 * queue throughput, fiber switches, cache-array lookups, store-buffer
 * push/drain, bbPB allocate/coalesce/drain, WPQ enqueue/retire,
 * backing-store access, end-to-end simulated ops per host second,
 * machine construction, and the post-crash recovery walk.
 * These guard the simulator's host-side performance (a slow simulator
 * caps the experiment sizes every other bench can afford).
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "api/cli.hh"
#include "api/experiment.hh"
#include "api/report.hh"
#include "api/system.hh"
#include "cache/cache_array.hh"
#include "cache/hierarchy.hh"
#include "core/bbpb.hh"
#include "cpu/store_buffer.hh"
#include "mem/addr_map.hh"
#include "mem/backing_store.hh"
#include "recover/recovery_manager.hh"
#include "sim/event_queue.hh"
#include "sim/fiber.hh"
#include "sim/rng.hh"
#include "workloads/workload.hh"

using namespace bbb;

namespace
{

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t sink = 0;
        for (int i = 0; i < 1000; ++i)
            eq.scheduleIn(static_cast<Tick>(i % 97), [&]() { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_FiberSwitch(benchmark::State &state)
{
    // One resume + yield round trip per iteration.
    bool stop = false;
    Fiber fiber([&stop]() {
        while (!stop)
            Fiber::yield();
    });
    for (auto _ : state)
        fiber.resume();
    stop = true;
    fiber.resume(); // let the body return
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FiberSwitch);

void
BM_BackingStoreBlockWrite(benchmark::State &state)
{
    BackingStore store;
    BlockData data;
    Rng rng(7);
    for (auto _ : state) {
        Addr a = blockAlign(rng.below(1ull << 30));
        store.writeBlock(a, data.bytes.data());
        benchmark::DoNotOptimize(store.pagesTouched());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BackingStoreBlockWrite);

void
BM_CacheArrayFindTouch(benchmark::State &state)
{
    CacheArray<L1Line> array(128_KiB, 8);
    Rng rng(11);
    for (unsigned i = 0; i < 1024; ++i) {
        Addr block = static_cast<Addr>(i) * kBlockSize;
        L1Line &victim = array.victim(block);
        array.fill(victim, block);
    }
    for (auto _ : state) {
        Addr block = (rng.below(1024)) * kBlockSize;
        L1Line *line = array.find(block);
        if (line)
            array.touch(*line);
        benchmark::DoNotOptimize(line);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheArrayFindTouch);

void
BM_BbpbAllocateCoalesce(benchmark::State &state)
{
    SystemConfig cfg;
    cfg.num_cores = 1;
    EventQueue eq;
    BackingStore store;
    DirectMedia media(store);
    StatRegistry stats;
    MemCtrl nvmm("nvmm", cfg.nvmm, eq, media, stats);
    MemSideBbpb bbpb(cfg, eq, nvmm, stats);
    BlockData data;
    Rng rng(13);
    for (auto _ : state) {
        Addr block = blockAlign(rng.below(16) * kBlockSize);
        if (bbpb.canAcceptPersist(0, block))
            bbpb.persistStore(0, block, 8, data);
        eq.run(eq.now() + 1000);
        benchmark::DoNotOptimize(bbpb.occupancy());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BbpbAllocateCoalesce);

void
BM_MemCtrlEnqueueRetire(benchmark::State &state)
{
    // One WPQ insert per iteration, cycling over more distinct blocks
    // than the queue holds: a full queue steps retirements until the
    // insert is accepted, so every iteration pays one enqueue and, in
    // the steady state, one retire event and media commit.
    SystemConfig cfg;
    EventQueue eq;
    BackingStore store;
    DirectMedia media(store);
    StatRegistry stats;
    MemCtrl nvmm("nvmm", cfg.nvmm, eq, media, stats);
    Addr base = AddrMap::fromConfig(cfg).persistBase();
    BlockData data;
    std::uint64_t i = 0;
    for (auto _ : state) {
        Addr block = base + (i++ % 4096) * kBlockSize;
        while (!nvmm.enqueueWrite(block, data)) {
            if (!eq.step()) {
                state.SkipWithError("full WPQ with no retirement queued");
                return;
            }
        }
    }
    eq.run();
    benchmark::DoNotOptimize(nvmm.mediaWrites());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemCtrlEnqueueRetire);

void
BM_StoreBufferPushDrain(benchmark::State &state)
{
    // One non-persisting store per iteration into a lone core's store
    // buffer; a full buffer steps its drain into the L1D first.
    SystemConfig cfg;
    cfg.num_cores = 1;
    cfg.l1d.size_bytes = 8_KiB;
    cfg.llc.size_bytes = 64_KiB;
    cfg.dram.size_bytes = 64_MiB;
    cfg.nvmm.size_bytes = 64_MiB;
    System sys(cfg);
    EventQueue &eq = sys.eventQueue();
    StatRegistry stats;
    StoreBuffer sb(0, cfg, eq, sys.hierarchy(), stats);
    Addr base = sys.addrMap().dramBase();
    std::uint64_t i = 0;
    for (auto _ : state) {
        while (sb.full()) {
            if (!eq.step()) {
                state.SkipWithError("full store buffer with no drain queued");
                return;
            }
        }
        sb.push(base + (i % 64) * kBlockSize, 8, i, false);
        ++i;
    }
    eq.run();
    benchmark::DoNotOptimize(sb.size());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreBufferPushDrain);

void
BM_EndToEndSimulatedStores(benchmark::State &state)
{
    // Host cost of simulating one persisting store, end to end.
    for (auto _ : state) {
        state.PauseTiming();
        SystemConfig cfg;
        cfg.num_cores = 1;
        cfg.l1d.size_bytes = 8_KiB;
        cfg.llc.size_bytes = 64_KiB;
        cfg.dram.size_bytes = 64_MiB;
        cfg.nvmm.size_bytes = 64_MiB;
        System sys(cfg);
        Addr base = sys.heap().alloc(0, 64 * 1024, 64);
        state.ResumeTiming();

        sys.onThread(0, [&](ThreadContext &tc) {
            for (unsigned i = 0; i < 4096; ++i)
                tc.store64(base + (i % 1024) * 64, i);
        });
        sys.run();
        benchmark::DoNotOptimize(sys.nvmmWrites());
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_EndToEndSimulatedStores)->Unit(benchmark::kMillisecond);

void
BM_CoreL1HitLoads(benchmark::State &state)
{
    // Host cost of one simulated L1-hit load on a lone core: with nothing
    // else queued, every resume fires in place (no queueing, no switch).
    constexpr unsigned kLoads = 16384;
    for (auto _ : state) {
        state.PauseTiming();
        SystemConfig cfg;
        cfg.num_cores = 1;
        cfg.l1d.size_bytes = 8_KiB;
        cfg.llc.size_bytes = 64_KiB;
        cfg.dram.size_bytes = 64_MiB;
        cfg.nvmm.size_bytes = 64_MiB;
        System sys(cfg);
        Addr base = sys.heap().alloc(0, 32 * kBlockSize, 64);
        state.ResumeTiming();

        std::uint64_t sum = 0;
        sys.onThread(0, [&](ThreadContext &tc) {
            for (unsigned i = 0; i < kLoads; ++i)
                sum += tc.load64(base + (i % 32) * kBlockSize);
        });
        sys.run();
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * kLoads);
}
BENCHMARK(BM_CoreL1HitLoads)->Unit(benchmark::kMillisecond);

void
BM_SystemBuild(benchmark::State &state)
{
    // Host cost of constructing and destroying one Table III machine
    // (8 cores, 128 KB L1D each, 1 MB LLC): the per-layer cost behind
    // api.system_ctor_s, paid once per crash round by the lifetime
    // campaign.
    SystemConfig cfg = benchConfig(PersistMode::BbbMemSide);
    for (auto _ : state) {
        System sys(cfg);
        benchmark::DoNotOptimize(sys.numCores());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SystemBuild)->Unit(benchmark::kMicrosecond);

void
BM_RecoveryWalk(benchmark::State &state)
{
    // Host cost of RecoveryManager::recover on an undamaged crash image at
    // the crash_lifetimes shape (8 cores, 200 prebuilt elements and 100
    // ops per thread, BBB-mem, crash at 60 us): the recovery walk, plus a
    // second walk only if recovery wrote. Arg: hashmap, skiplist,
    // linkedlist.
    static const char *const kWorkloads[] = {"hashmap", "skiplist",
                                             "linkedlist"};
    const char *name = kWorkloads[state.range(0)];
    state.SetLabel(name);
    WorkloadParams params;
    params.ops_per_thread = 100;
    params.initial_elements = 200;
    System sys(benchConfig(PersistMode::BbbMemSide));
    auto wl = makeWorkload(name, params);
    wl->install(sys);
    sys.runAndCrashAt(nsToTicks(60000));
    BackingStore image = sys.image().clone();

    std::uint64_t checked = 0;
    for (auto _ : state) {
        RecoveryManager mgr(image, sys.addrMap(), sys.numCores());
        checked = mgr.recover(*wl).verify.checked;
        benchmark::DoNotOptimize(checked);
    }
    // Items are the objects the walk checked: time per item is per node.
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(checked));
}
BENCHMARK(BM_RecoveryWalk)->DenseRange(0, 2)->Unit(benchmark::kMicrosecond);

} // namespace

// Custom main instead of BENCHMARK_MAIN(): the bench_smoke ctest driver
// passes the harness-wide `--fast --jobs N --json P` flags to every bench
// binary, and google-benchmark rejects flags it does not know.
int
main(int argc, char **argv)
{
    std::string json = bbb::cli::jsonPathArg(argc, argv);
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--fast") == 0)
            continue;
        if ((std::strcmp(argv[i], "--jobs") == 0 ||
             std::strcmp(argv[i], "--json") == 0) &&
            i + 1 < argc) {
            ++i;
            continue;
        }
        args.push_back(argv[i]);
    }
    int kept = static_cast<int>(args.size());
    args.push_back(nullptr);
    benchmark::Initialize(&kept, args.data());
    if (benchmark::ReportUnrecognizedArguments(kept, args.data()))
        return 1;

    benchmark::RunSpecifiedBenchmarks();
    // Host timings never enter a bbb-bench-report; the --json document
    // only names the harness. For the timings as JSON, pass
    // --benchmark_out=F --benchmark_out_format=json.
    bbb::BenchReport rep("micro");
    rep.setConfig("harness", "google-benchmark");
    rep.emitIfRequested(json);
    return 0;
}
