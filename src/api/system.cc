#include "api/system.hh"

#include "mem/ftl/ftl_media.hh"

namespace bbb
{

System::System(const SystemConfig &cfg)
    : _cfg(cfg), _map(AddrMap::fromConfig(cfg))
{
    BBB_ASSERT(_cfg.num_cores >= 1 && _cfg.num_cores <= 64,
               "1..64 cores supported (directory uses a 64-bit mask)");

    _eq.reserve(_cfg.eventCapacityHint());

    // The DRAM device has no endurance model: always a pass-through
    // (and unregistered — the "media" stat group describes the NVMM).
    _dram_media = std::make_unique<DirectMedia>(_store);
    if (_cfg.media.kind == MediaKind::Ftl) {
        _nvmm_media = std::make_unique<FtlMedia>(_store, _cfg.media,
                                                 _cfg.nvmm.channels);
    } else {
        _nvmm_media = std::make_unique<DirectMedia>(_store);
    }
    _nvmm_media->registerStats(_stats);

    _dram = std::make_unique<MemCtrl>("dram", _cfg.dram, _eq, *_dram_media,
                                      _stats);
    _nvmm = std::make_unique<MemCtrl>("nvmm", _cfg.nvmm, _eq, *_nvmm_media,
                                      _stats);
    _hier = std::make_unique<CacheHierarchy>(_cfg, _map, _eq, *_dram,
                                             *_nvmm, _stats);

    switch (_cfg.mode) {
      case PersistMode::BbbMemSide: {
        auto backend =
            std::make_unique<MemSideBbpb>(_cfg, _eq, *_nvmm, _stats);
        _mem_bbpb = backend.get();
        _backend_owned = std::move(backend);
        break;
      }
      case PersistMode::BbbProcSide: {
        auto backend =
            std::make_unique<ProcSideBbpb>(_cfg, _eq, *_nvmm, _stats);
        _proc_bbpb = backend.get();
        _backend_owned = std::move(backend);
        break;
      }
      default:
        _backend_owned = std::make_unique<NullPersistencyBackend>();
        break;
    }
    _backend = _backend_owned.get();
    _hier->setBackend(_backend);

    for (CoreId c = 0; c < _cfg.num_cores; ++c) {
        _cores.push_back(
            std::make_unique<Core>(c, _cfg, _eq, *_hier, _stats));
    }

    _heap = std::make_unique<PersistentHeap>(_map, _cfg.num_cores);
    _crash = std::make_unique<CrashEngine>(_cfg, *_hier, *_nvmm, *_backend,
                                           _cores, _stats);

    StatGroup &sim = _stats.group("sim");
    sim.addCounter("ops", &_sim.ops, "memory operations simulated");
    sim.addCounter("events_fired", &_sim.events_fired,
                   "events executed by the event queue");
    sim.addCounter("events_inlined", &_sim.events_inlined,
                   "events_fired that fired in place without queueing");

    // Stamp the heap magic in media so recovery can sanity-check it.
    _store.write64(_heap->magicAddr(), PersistentHeap::kMagic);
}

System::~System() = default;

void
System::setFaultPlan(const FaultPlan &plan)
{
    BBB_ASSERT(!_crashed, "fault plan armed after the crash");
    if (!plan.enabled()) {
        // Detach entirely: the fault-free machine must not even consult
        // the injector, so disabled plans reproduce it bit for bit.
        _faults.reset();
        _nvmm->setFaultInjector(nullptr);
        _crash->setFaultInjector(nullptr);
        return;
    }
    _faults = std::make_unique<FaultInjector>(plan);
    _nvmm->setFaultInjector(_faults.get());
    _crash->setFaultInjector(_faults.get());
}

MetricSnapshot
System::snapshotMetrics(bool histogram_buckets) const
{
    // Refresh the simulator-work counters from the live components so
    // the registry walk below sees current values.
    _sim.ops.set(_hier->memOps());
    _sim.events_fired.set(_eq.executed());
    _sim.events_inlined.set(_eq.inlined());

    MetricSnapshot m = _stats.snapshot(histogram_buckets);

    // Derived system-level results that live outside the registry.
    m.setCount("system.exec_ticks", _exec_time);
    m.setReal("system.exec_ns", ticksToNs(_exec_time));
    m.setCount("system.nvmm_writes", _nvmm->mediaWrites());
    m.setCount("system.nvmm_writes_effective", effectiveNvmmWrites());
    m.setLevel("system.wpq_occupancy",
               static_cast<double>(_nvmm->wpqOccupancy()));
    m.setLevel("system.backend_occupancy",
               static_cast<double>(_backend->occupancy()));

    // Media-layer derived leaves: write amplification always, plus the
    // wear/remap/lifetime subtree for the FTL backend.
    _nvmm_media->addDerivedMetrics(m, ticksToNs(_exec_time) * 1e-9);

    // Instantaneous dirty-state watermarks from the hierarchy walk.
    DirtyStats d = _hier->dirtyStats();
    m.setLevel("hierarchy.l1_dirty_blocks",
               static_cast<double>(d.l1_dirty_blocks));
    m.setLevel("hierarchy.l1_valid_blocks",
               static_cast<double>(d.l1_valid_blocks));
    m.setLevel("hierarchy.llc_dirty_blocks",
               static_cast<double>(d.llc_dirty_blocks));
    m.setLevel("hierarchy.llc_valid_blocks",
               static_cast<double>(d.llc_valid_blocks));
    return m;
}

void
System::onThread(CoreId c, Core::ThreadBody body)
{
    _cores.at(c)->bindThread(std::move(body));
}

void
System::seedImage(const BackingStore &src)
{
    BBB_ASSERT(!_crashed, "seeding the image after the crash");
    BBB_ASSERT(_eq.now() == 0, "seeding the image mid-run");
    _store = src.clone();
    // Re-stamp the heap magic: a seeded image normally carries it already
    // (it came from another System), but an explicitly empty seed must
    // still present a valid heap header.
    _store.write64(_heap->magicAddr(), PersistentHeap::kMagic);
}

bool
System::allThreadsFinished() const
{
    for (const auto &core : _cores) {
        if (!core->finished() && !core->halted())
            return false;
    }
    return true;
}

void
System::scheduleInvariantCheck()
{
    _eq.schedule(
        _eq.now() + _cfg.cycles(_cfg.invariant_check_cycles),
        [this]() {
            _hier->checkInvariants();
            // Stop resampling once the machine quiesces (or crashed), so
            // run(kMaxTick) still terminates.
            if (!_crashed && !allThreadsFinished())
                scheduleInvariantCheck();
        },
        EventPriority::Stats);
}

void
System::startGated(OpGate &gate)
{
    for (auto &core : _cores) {
        core->setOpGate(gate);
        core->storeBuffer().setManualDrain(true);
        core->start();
    }
}

Tick
System::run(Tick max_tick)
{
    for (auto &core : _cores)
        core->start();

    if (_cfg.check_invariants && !_invariants_scheduled) {
        _invariants_scheduled = true;
        scheduleInvariantCheck();
    }

    // Run until every thread finishes and trailing buffer drains settle,
    // so write counts are complete.
    _eq.run(max_tick);

    Tick finish = 0;
    for (const auto &core : _cores)
        finish = std::max(finish, core->finishTick());
    _exec_time = finish;
    return finish;
}

void
System::runUntil(Tick until)
{
    // start() is idempotent on cores, so repeated runUntil() calls
    // resume where the previous one stopped — only the invariant-check
    // event must not be scheduled twice.
    for (auto &core : _cores)
        core->start();
    if (_cfg.check_invariants && !_invariants_scheduled) {
        _invariants_scheduled = true;
        scheduleInvariantCheck();
    }
    _eq.run(until);
}

CrashReport
System::runAndCrashAt(Tick crash_tick)
{
    runUntil(crash_tick);
    return crashNow();
}

std::uint64_t
System::proactiveDrain(std::uint64_t max_blocks)
{
    return _crash->proactiveDrain(max_blocks);
}

void
System::setLowPower(bool on)
{
    _backend->setLowPower(on);
}

CrashReport
System::crashNow()
{
    BBB_ASSERT(!_crashed, "system already crashed");
    _crashed = true;
    // The persistence-domain invariants must hold at the instant power
    // fails -- this is the state the drain is about to persist.
    if (_cfg.check_invariants)
        _hier->checkInvariants();
    return _crash->crash(_eq.now());
}

} // namespace bbb
