#include "core/crash_engine.hh"

#include "fault/fault_injector.hh"

namespace bbb
{

void
CrashStats::registerWith(StatGroup &g)
{
    g.addCounter("crashes", &crashes, "power failures taken");
    g.addCounter("wpq_blocks", &wpq_blocks, "WPQ blocks drained");
    g.addCounter("bbpb_blocks", &bbpb_blocks, "bbPB blocks drained");
    g.addCounter("cache_blocks_l1", &cache_blocks_l1,
                 "dirty L1 blocks drained (eADR)");
    g.addCounter("cache_blocks_llc", &cache_blocks_llc,
                 "dirty LLC blocks drained (eADR)");
    g.addCounter("sb_entries", &sb_entries,
                 "battery-backed store-buffer entries drained");
    g.addCounter("drained_bytes", &drained_bytes,
                 "bytes drained (excluding the WPQ)");
    g.addCounter("sacrificed_blocks", &sacrificed_blocks,
                 "items lost to an exhausted battery");
    g.addCounter("torn_media_blocks", &torn_media_blocks,
                 "drained blocks torn by terminal media failures");
    g.addCounter("media_retries", &media_retries,
                 "media write retries during the drain");
    g.addCounter("recrashes", &recrashes, "mid-drain re-crashes taken");
    g.addCounter("battery_exhausted", &battery_exhausted,
                 "crashes whose battery ran out mid-drain");
    g.addCounter("prefix_violations", &prefix_violations,
                 "crashes violating the oldest-first prefix oracle");
    g.addCounter("proactive_drains", &proactive_drains,
                 "low-battery proactive backup invocations");
    g.addCounter("proactive_drain_blocks", &proactive_drain_blocks,
                 "blocks drained by low-battery backups");
    g.addAverage("drain_energy_j", &drain_energy_j,
                 "drain energy per crash (J, Table VI model)");
    g.addAverage("drain_time_s", &drain_time_s,
                 "drain time per crash (s)");
    g.addAverage("battery_spent_j", &battery_spent_j,
                 "battery energy drawn per crash (J, including the WPQ)");
}

void
CrashStats::note(const CrashReport &rep)
{
    ++crashes;
    wpq_blocks += rep.wpq_blocks;
    bbpb_blocks += rep.bbpb_blocks;
    cache_blocks_l1 += rep.cache_blocks_l1;
    cache_blocks_llc += rep.cache_blocks_llc;
    sb_entries += rep.sb_entries;
    drained_bytes += rep.drained_bytes;
    sacrificed_blocks += rep.sacrificed_blocks;
    torn_media_blocks += rep.torn_media_blocks;
    media_retries += rep.media_retries;
    recrashes += rep.recrashes;
    if (rep.battery_exhausted)
        ++battery_exhausted;
    if (!rep.drain_prefix_ok)
        ++prefix_violations;
    drain_energy_j.sample(rep.drain_energy_j);
    drain_time_s.sample(rep.drain_time_s);
    battery_spent_j.sample(rep.battery_spent_j);
}

std::uint64_t
CrashEngine::proactiveDrain(std::uint64_t max_blocks)
{
    std::uint64_t drained = _backend.forceDrainOldest(max_blocks);
    ++_stats.proactive_drains;
    _stats.proactive_drain_blocks += drained;
    return drained;
}

CrashReport
CrashEngine::crash(Tick now)
{
    CrashReport rep;
    rep.crash_tick = now;
    rep.mode = _cfg.mode;

    for (auto &core : _cores)
        core->halt();

    DrainCostModel cost(simulatedPlatform(_cfg));
    const EnergyConstants &con = cost.constants();
    const double l1_rate_j =
        con.sram_access_j_per_byte + con.l1_to_nvmm_j_per_byte;
    const double l1_block_j = con.l1BlockJ();
    const double llc_block_j =
        kBlockSize * (con.sram_access_j_per_byte + con.l2_to_nvmm_j_per_byte);

    // The battery gate: a negative budget is a correctly sized battery
    // (no gate), so the fault-free path shares the drain loop.
    double budget = _faults ? _faults->budgetJ() : -1.0;
    double spent = 0.0;
    const std::uint64_t recrash_after =
        _faults ? _faults->plan().recrash_after_blocks : 0;

    std::uint64_t l1_rate_bytes = 0;  // bbPB / L1 / SB draining path
    std::uint64_t llc_rate_bytes = 0; // LLC draining path
    std::uint64_t drained_items = 0;
    bool exhausted = false;
    bool sacrificed_seen = false;
    bool recrash_pending = recrash_after > 0;

    // One persistence-domain item passed the battery gate and drained:
    // bookkeeping shared by every drain source.
    auto noteDrained = [&]() {
        if (sacrificed_seen)
            rep.drain_prefix_ok = false;
        ++drained_items;
        if (recrash_pending && drained_items >= recrash_after) {
            // Power fails again mid-drain. Draining is idempotent, so
            // re-entering crash() with the residual budget is exactly
            // "continue under the scaled-down reserve".
            if (budget >= 0.0)
                budget = spent + (budget - spent) *
                                     _faults->plan().recrash_budget_factor;
            ++rep.recrashes;
            recrash_pending = false;
        }
    };

    // Gate one item costing @p item_j through the battery; a refused
    // item consumes nothing.
    auto batteryAllows = [&](double item_j) {
        if (exhausted)
            return false; // prefix by construction: never drain again
        if (budget >= 0.0 && spent + item_j > budget) {
            exhausted = true;
            rep.battery_exhausted = true;
            return false;
        }
        spent += item_j;
        return true;
    };

    // Commit one full drained block through the controller, possibly
    // tearing it.
    auto commitDrained = [&](Addr block, const BlockData &data) {
        unsigned retries = 0;
        if (_nvmm.writeThrough(block, data, retries) == MediaAttempt::Torn)
            ++rep.torn_media_blocks;
        rep.media_retries += retries;
    };

    // 1. WPQ: always in the persistence domain (ADR), and the oldest
    // data, so it drains first. The WPQ sits at the controller, past the
    // core-side SRAM: its bytes charge the battery at the L2/L3 rate
    // (see DrainCostModel::bbbCrashBudgetJ). Per the report's historical
    // contract they do not count into drained_bytes/drain_energy_j.
    auto wpq = _nvmm.takeWpqForCrash();
    for (auto &kv : wpq) {
        if (batteryAllows(llc_block_j)) {
            commitDrained(kv.first, kv.second);
            ++rep.wpq_blocks;
            noteDrained();
        } else {
            sacrificed_seen = true;
            ++rep.sacrificed_blocks;
            _faults->noteDamaged(kv.first, kv.second);
        }
    }

    // 2. Mode-specific drains, oldest-to-newest so fresher copies win.
    switch (_cfg.mode) {
      case PersistMode::AdrPmem:
      case PersistMode::AdrUnsafe:
        break; // caches and buffers are lost

      case PersistMode::Eadr: {
        std::uint64_t from_l1 = 0;
        auto dirty = _hier.collectDirtyNvmm(&from_l1);
        std::uint64_t idx = 0;
        for (const auto &rec : dirty) {
            bool is_l1 = idx++ < from_l1;
            if (batteryAllows(is_l1 ? l1_block_j : llc_block_j)) {
                commitDrained(rec.block, rec.data);
                noteDrained();
                if (is_l1) {
                    ++rep.cache_blocks_l1;
                    l1_rate_bytes += kBlockSize;
                } else {
                    ++rep.cache_blocks_llc;
                    llc_rate_bytes += kBlockSize;
                }
            } else {
                sacrificed_seen = true;
                ++rep.sacrificed_blocks;
                _faults->noteDamaged(rec.block, rec.data);
            }
        }
        break;
      }

      case PersistMode::BbbMemSide:
      case PersistMode::BbbProcSide: {
        // crashDrain() streams FCFS allocation order == persist order;
        // each block is applied as it passes, no intermediate copies.
        _backend.crashDrain([&](Addr block, const BlockData &data) {
            if (batteryAllows(l1_block_j)) {
                commitDrained(block, data);
                ++rep.bbpb_blocks;
                l1_rate_bytes += kBlockSize;
                noteDrained();
            } else {
                sacrificed_seen = true;
                ++rep.sacrificed_blocks;
                _faults->noteDamaged(block, data);
            }
        });
        break;
      }
    }

    // 3. Battery-backed store buffers (relaxed consistency): applied last
    // and in program order, they are the youngest persisting stores
    // (Section III-C). Needed equally by eADR and BBB; disabling
    // sb_battery_backed reproduces the Section III-C ordering hazard.
    if (_cfg.relaxed_consistency && _cfg.sb_battery_backed &&
        _cfg.mode != PersistMode::AdrPmem &&
        _cfg.mode != PersistMode::AdrUnsafe) {
        for (auto &core : _cores) {
            auto entries = core->storeBuffer().drainForCrash();
            for (const auto &e : entries) {
                if (batteryAllows(e.size * l1_rate_j)) {
                    _nvmm.crashPatch(e.addr, &e.data, e.size);
                    ++rep.sb_entries;
                    l1_rate_bytes += e.size;
                    noteDrained();
                } else {
                    sacrificed_seen = true;
                    ++rep.sacrificed_blocks;
                    BlockData current;
                    _nvmm.peekBlock(e.addr, current);
                    _faults->noteSacrificedBytes(e.addr, &e.data, e.size,
                                                 current);
                }
            }
        }
    }

    rep.drained_bytes = l1_rate_bytes + llc_rate_bytes;
    rep.drain_energy_j = cost.drainEnergyJ(l1_rate_bytes, llc_rate_bytes, 0);
    rep.drain_time_s =
        static_cast<double>(rep.drained_bytes) /
        (cost.constants().channel_write_bw * _cfg.nvmm.channels);
    rep.battery_spent_j = spent;

    // The reboot "mount": an FTL backend replays its reconstructed remap
    // table into the logical image so recovery's raw post-crash walk
    // reads every block through the mapping.
    _nvmm.crashMount();

    _stats.note(rep);
    return rep;
}

} // namespace bbb
