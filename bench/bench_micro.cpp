/**
 * @file
 * Google-benchmark microbenchmarks of the simulator substrate: event
 * queue throughput, fiber switches, cache-array lookups, store-buffer
 * push/drain, bbPB allocate/coalesce/drain, WPQ enqueue/retire, FTL
 * commit/read over a large mapping, backing-store writes, scattered
 * reads and image fingerprints, the workload prebuild, end-to-end
 * simulated ops per host second, machine construction, and the
 * post-crash recovery walk.
 * These guard the simulator's host-side performance (a slow simulator
 * caps the experiment sizes every other bench can afford).
 */

#include <benchmark/benchmark.h>

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
#include "mem/ftl/ftl_media.hh"
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
BM_BackingStoreRead64Scattered(benchmark::State &state)
{
    // One read64 per iteration over 4,096 materialised pages visited in a
    // scattered order, so nearly every read misses the 64-slot page
    // cache and goes to the page index.
    constexpr std::uint64_t kPages = 4096;
    constexpr Addr kPage = BackingStore::kPageSize;
    BackingStore store;
    for (std::uint64_t p = 0; p < kPages; ++p)
        store.write64(p * 3 * kPage + 8 * (p % 512), p);
    std::uint64_t sum = 0;
    std::uint64_t i = 0;
    for (auto _ : state) {
        std::uint64_t p = (i * 2749) % kPages;
        sum += store.read64(p * 3 * kPage + 8 * (p % 512));
        ++i;
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BackingStoreRead64Scattered);

void
BM_ImageFingerprint(benchmark::State &state)
{
    // BackingStore::fingerprint (the golden image check) over a prepared
    // benchmark image at the fig7 grid's shape. Arg 0: rtree, a sparse
    // tree image with many zero words; arg 1: mutateNC, a dense array
    // image. Items are pages.
    static const char *const kWorkloads[] = {"rtree", "mutateNC"};
    const char *name = kWorkloads[state.range(0)];
    state.SetLabel(name);
    WorkloadParams params;
    params.initial_elements = 12500;
    params.array_elements = 1ull << 17;
    System sys(benchConfig(PersistMode::BbbMemSide));
    makeWorkload(name, params)->install(sys);
    const BackingStore &image = sys.image();
    for (auto _ : state)
        benchmark::DoNotOptimize(image.fingerprint());
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(image.pagesTouched()));
}
BENCHMARK(BM_ImageFingerprint)
    ->DenseRange(0, 1)
    ->Unit(benchmark::kMicrosecond);

void
BM_WorkloadPrepare(benchmark::State &state)
{
    // Host cost of Workload::install (the functional prebuild behind
    // workloads.install_s) on the fig7 machine, 8 cores. The machine is
    // built and torn down outside the timed region. Arg 0: rtree, ctree,
    // hashmap. Arg 1: prebuilt elements per thread, 12,500 (the fig7
    // grid's bench shape) or 100,000 (bench_paper's full fig7 shape).
    // Items are prebuilt elements.
    static const char *const kWorkloads[] = {"rtree", "ctree", "hashmap"};
    const char *name = kWorkloads[state.range(0)];
    state.SetLabel(name);
    WorkloadParams params;
    params.initial_elements = static_cast<std::uint64_t>(state.range(1));
    SystemConfig cfg = benchConfig(PersistMode::BbbMemSide);
    unsigned cores = cfg.num_cores;
    for (auto _ : state) {
        state.PauseTiming();
        {
            System sys(cfg);
            auto wl = makeWorkload(name, params);
            state.ResumeTiming();
            wl->install(sys);
            state.PauseTiming();
            benchmark::DoNotOptimize(sys.image().pagesTouched());
        }
        state.ResumeTiming();
    }
    state.SetItemsProcessed(state.iterations() * cores *
                            static_cast<std::int64_t>(params.initial_elements));
}
BENCHMARK(BM_WorkloadPrepare)
    ->ArgsProduct({{0, 1, 2}, {12500, 100000}})
    ->Unit(benchmark::kMillisecond);

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
BM_FtlCommitRead(benchmark::State &state)
{
    // One out-of-place commit plus one mapped read per iteration, over
    // 64K mapped blocks (a persist_storm swapC point maps about 50K), so
    // the page-mapping table and the wear pools work at full size.
    constexpr std::uint64_t kBlocks = 1 << 16;
    SystemConfig cfg;
    BackingStore store;
    FtlMedia ftl(store, cfg.media, cfg.nvmm.channels);
    BlockData data;
    for (std::uint64_t b = 0; b < kBlocks; ++b)
        ftl.commitBlock(b * kBlockSize, data);
    BlockData out;
    std::uint64_t i = 0;
    for (auto _ : state) {
        // An odd stride visits every block in a scattered order.
        Addr block = ((i * 40503) % kBlocks) * kBlockSize;
        data.bytes[0] = static_cast<unsigned char>(i);
        ftl.commitBlock(block, data);
        ftl.readBlock(((i * 7919 + 1) % kBlocks) * kBlockSize,
                      out.bytes.data());
        ++i;
    }
    benchmark::DoNotOptimize(out.bytes[0]);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FtlCommitRead);

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
BM_StoreBufferProbe(benchmark::State &state)
{
    // Three load probes per iteration against a full 32-deep buffer that
    // holds words 0 and 1 of 16 blocks: a forwarding hit, a same-block
    // load that must wait, and a miss. The drain never runs.
    SystemConfig cfg;
    cfg.num_cores = 1;
    cfg.store_buffer.entries = 32;
    cfg.dram.size_bytes = 64_MiB;
    cfg.nvmm.size_bytes = 64_MiB;
    System sys(cfg);
    StatRegistry stats;
    StoreBuffer sb(0, cfg, sys.eventQueue(), sys.hierarchy(), stats);
    Addr base = sys.addrMap().dramBase();
    constexpr unsigned kBlocks = 16;
    for (unsigned w = 0; w < 2; ++w) {
        for (unsigned b = 0; b < kBlocks; ++b)
            sb.push(base + b * kBlockSize + w * 8, 8, b, false);
    }
    std::uint64_t i = 0, sum = 0;
    for (auto _ : state) {
        Addr block = base + (i % kBlocks) * kBlockSize;
        std::uint64_t v = 0;
        if (sb.probe(block + 8, 8, v) != SbProbe::Hit ||
            sb.probe(block + 16, 8, v) != SbProbe::Blocked ||
            sb.probe(block + kBlocks * kBlockSize, 8, v) != SbProbe::Miss) {
            state.SkipWithError("unexpected store-buffer probe");
            return;
        }
        sum += v;
        ++i;
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(3 * state.iterations());
}
BENCHMARK(BM_StoreBufferProbe);

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

// Custom main instead of BENCHMARK_MAIN(): `--json PATH` is this
// harness's own flag, `--benchmark_*` flags go to google-benchmark, and
// anything else exits 2 like every other driver (src/api/cli.hh).
int
main(int argc, char **argv)
{
    std::string json;
    std::vector<char *> forwarded{argv[0]};
    bbb::cli::Args args(argc, argv,
                        "usage: bench_micro [--json PATH] "
                        "[--benchmark_*...]");
    while (args.next()) {
        if (args.is("--json"))
            json = args.value();
        else if (args.arg().starts_with("--benchmark_"))
            forwarded.push_back(argv[args.pos()]);
        else
            args.unknown();
    }
    int kept = static_cast<int>(forwarded.size());
    forwarded.push_back(nullptr);
    benchmark::Initialize(&kept, forwarded.data());
    if (benchmark::ReportUnrecognizedArguments(kept, forwarded.data()))
        return 2;

    benchmark::RunSpecifiedBenchmarks();
    // Host timings never enter a bbb-bench-report; the --json document
    // only names the harness. For the timings as JSON, pass
    // --benchmark_out=F --benchmark_out_format=json.
    bbb::BenchReport rep("micro");
    rep.setConfig("harness", "google-benchmark");
    rep.emitIfRequested(json);
    return 0;
}
