#include "cache/hierarchy.hh"

#include <cstring>

namespace bbb
{

CacheHierarchy::CacheHierarchy(const SystemConfig &cfg, const AddrMap &map,
                               EventQueue &eq, MemCtrl &dram, MemCtrl &nvmm,
                               StatRegistry &stats)
    : _cfg(cfg), _map(map), _eq(eq), _dram(dram), _nvmm(nvmm),
      _backend(&_null_backend),
      _llc(cfg.llc.size_bytes, cfg.llc.assoc, cfg.llc.repl,
           cfg.seed ^ 0x11c),
      _l1_lat(cfg.cycles(cfg.l1d.latency_cycles)),
      _llc_lat(cfg.cycles(cfg.llc.latency_cycles))
{
    _l1.reserve(cfg.num_cores);
    for (CoreId c = 0; c < cfg.num_cores; ++c) {
        _l1.emplace_back(cfg.l1d.size_bytes, cfg.l1d.assoc, cfg.l1d.repl,
                         cfg.seed ^ (0x100 + c));
    }

    StatGroup &g = stats.group("hierarchy");
    g.addCounter("loads", &_loads);
    g.addCounter("stores", &_stores);
    g.addCounter("persisting_stores", &_persisting_stores);
    g.addCounter("l1_hits", &_l1_hits);
    g.addCounter("l1_misses", &_l1_misses);
    g.addCounter("llc_hits", &_llc_hits);
    g.addCounter("llc_misses", &_llc_misses);
    g.addCounter("interventions", &_interventions);
    g.addCounter("upgrades", &_upgrades);
    g.addCounter("invalidations", &_invalidations);
    g.addCounter("l1_writebacks", &_l1_writebacks);
    g.addCounter("llc_writebacks", &_llc_writebacks);
    g.addCounter("skipped_writebacks", &_skipped_writebacks);
    g.addCounter("forced_drains", &_forced_drains);
    g.addCounter("flushes", &_flushes);
}

MemCtrl &
CacheHierarchy::ctrlFor(Addr block)
{
    return _map.kind(block) == MemKind::Dram ? _dram : _nvmm;
}

void
CacheHierarchy::writebackToMemory(Addr block, const BlockData &data,
                                  Tick &lat)
{
    MemCtrl &ctrl = ctrlFor(block);
    if (!ctrl.enqueueWrite(block, data)) {
        // WPQ full: model the stall as extra latency and force the write
        // through so the transaction stays atomic.
        lat += _cfg.nvmm.write_latency;
        ctrl.forceWrite(block, data);
    }
}

void
CacheHierarchy::fetchFromOwner(LlcLine &llc_line, Tick &lat)
{
    if (llc_line.owner == kNoCore)
        return;
    CoreId o = llc_line.owner;
    Addr block = _llc.blockOf(llc_line);
    L1Line *remote = _l1[o].find(block);
    BBB_ASSERT(remote && remote->state != Mesi::Invalid,
               "directory owner %u lacks block %#llx", o,
               (unsigned long long)block);
    lat += _l1_lat; // remote snoop
    ++_interventions;
    if (remote->state == Mesi::Modified) {
        llc_line.data = remote->data;
        llc_line.dirty = true;
    }
    remote->state = Mesi::Shared;
    llc_line.owner = kNoCore;
}

void
CacheHierarchy::evictL1Line(CoreId c, L1Line &line, Tick &lat)
{
    Addr block = _l1[c].blockOf(line);
    LlcLine *llc_line = _llc.find(block);
    BBB_ASSERT(llc_line, "L1 block %#llx missing from inclusive LLC",
               (unsigned long long)block);

    if (line.state == Mesi::Modified) {
        llc_line->data = line.data;
        llc_line->dirty = true;
        ++_l1_writebacks;
        lat += _llc_lat;
    }

    llc_line->sharers &= ~(1ull << c);
    if (llc_line->owner == c)
        llc_line->owner = kNoCore;

    // A bbPB entry survives its block's L1 eviction: the inclusion that
    // matters for reachability is at the LLC level (Section III-E), and
    // the writeback above keeps the LLC copy as fresh as the entry.

    _l1[c].invalidate(line);
}

void
CacheHierarchy::evictLlcLine(LlcLine &line, Tick &lat)
{
    Addr block = _llc.blockOf(line);

    // Back-invalidate every L1 copy (inclusive LLC), grabbing M data.
    for (CoreId c = 0; c < _cfg.num_cores; ++c) {
        if (!(line.sharers & (1ull << c)))
            continue;
        L1Line *l1_line = _l1[c].find(block);
        BBB_ASSERT(l1_line, "directory sharer %u lacks block %#llx", c,
                   (unsigned long long)block);
        if (l1_line->state == Mesi::Modified) {
            line.data = l1_line->data;
            line.dirty = true;
        }
        lat += _l1_lat;
        ++_invalidations;
        _l1[c].invalidate(*l1_line);
    }
    line.sharers = 0;
    line.owner = kNoCore;

    // Forced drain message (Fig. 5b): the LLC must stay dirty-inclusive
    // of the bbPBs, so any bbPB holding this block drains it before the
    // eviction completes — otherwise a later LLC miss would read a stale
    // copy from memory. The holder's L1 may long since have evicted the
    // block, so this check is independent of the sharer list; line.data
    // already carries the freshest value (M copies merged above).
    if (_backend->holder(block) != kNoCore) {
        ++_forced_drains;
        _backend->onForcedDrain(block, line.data);
    }

    if (line.dirty) {
        if (line.persistent && _backend->skipLlcWriteback(block)) {
            // Section III-E: the bbPB (or an earlier drain) already
            // persisted this value; skip the redundant NVMM write.
            ++_skipped_writebacks;
        } else {
            ++_llc_writebacks;
            writebackToMemory(block, line.data, lat);
        }
    }

    _llc.invalidate(line);
}

LlcLine &
CacheHierarchy::getLlcLine(Addr block, Tick &lat)
{
    LlcLine *line = _llc.find(block);
    if (line) {
        ++_llc_hits;
        _llc.touch(*line);
        return *line;
    }

    ++_llc_misses;
    BlockData data;
    lat += ctrlFor(block).readBlock(block, data);

    LlcLine &victim = _llc.victim(block);
    if (_llc.isValid(victim))
        evictLlcLine(victim, lat);

    _llc.fill(victim, block);
    victim.data = data;
    victim.dirty = false;
    victim.persistent = _map.isPersistent(block);
    victim.sharers = 0;
    victim.owner = kNoCore;
    return victim;
}

L1Line &
CacheHierarchy::installL1(CoreId c, Addr block, Tick &lat)
{
    L1Line &victim = _l1[c].victim(block);
    if (_l1[c].isValid(victim))
        evictL1Line(c, victim, lat);
    _l1[c].fill(victim, block);
    return victim;
}

L1Line &
CacheHierarchy::getForRead(CoreId c, Addr block, Tick &lat)
{
    lat += _l1_lat;
    L1Line *line = _l1[c].find(block);
    if (line && line->state != Mesi::Invalid) {
        ++_l1_hits;
        _l1[c].touch(*line);
        return *line;
    }

    ++_l1_misses;
    lat += _llc_lat - _l1_lat; // total path to LLC
    LlcLine &llc_line = getLlcLine(block, lat);

    // Downgrade a remote exclusive/modified owner.
    if (llc_line.owner != kNoCore && llc_line.owner != c)
        fetchFromOwner(llc_line, lat);

    L1Line &installed = installL1(c, block, lat);
    // installL1 may have evicted lines but cannot evict `llc_line`'s
    // block from the LLC, so the reference stays valid.
    installed.data = llc_line.data;
    if (llc_line.sharers == 0) {
        installed.state = Mesi::Exclusive;
        llc_line.owner = c;
    } else {
        installed.state = Mesi::Shared;
    }
    llc_line.sharers |= (1ull << c);
    return installed;
}

L1Line &
CacheHierarchy::getForWrite(CoreId c, Addr block, Tick &lat)
{
    lat += _l1_lat;
    L1Line *line = _l1[c].find(block);

    if (line && canWriteSilently(line->state)) {
        ++_l1_hits;
        _l1[c].touch(*line);
        if (line->state == Mesi::Exclusive) {
            line->state = Mesi::Modified;
            LlcLine *llc_line = _llc.find(block);
            BBB_ASSERT(llc_line, "E line not in LLC");
            BBB_ASSERT(llc_line->owner == c, "E line with foreign owner");
        }
        return *line;
    }

    if (line && line->state == Mesi::Shared) {
        // Upgrade: invalidate the other sharers (Fig. 6b).
        ++_l1_hits;
        ++_upgrades;
        lat += _llc_lat - _l1_lat;
        LlcLine *llc_line = _llc.find(block);
        BBB_ASSERT(llc_line, "S line not in inclusive LLC");
        for (CoreId o = 0; o < _cfg.num_cores; ++o) {
            if (o == c || !(llc_line->sharers & (1ull << o)))
                continue;
            L1Line *remote = _l1[o].find(block);
            BBB_ASSERT(remote, "sharer %u lacks block", o);
            lat += _l1_lat;
            ++_invalidations;
            _l1[o].invalidate(*remote);
        }
        llc_line->sharers = (1ull << c);
        llc_line->owner = c;
        line->state = Mesi::Modified;
        _l1[c].touch(*line);
        return *line;
    }

    // Miss: read-exclusive (Fig. 6a when a remote M copy exists).
    ++_l1_misses;
    lat += _llc_lat - _l1_lat;
    LlcLine &llc_line = getLlcLine(block, lat);

    if (llc_line.owner != kNoCore && llc_line.owner != c) {
        CoreId o = llc_line.owner;
        L1Line *remote = _l1[o].find(block);
        BBB_ASSERT(remote, "owner %u lacks block", o);
        lat += _l1_lat;
        ++_invalidations;
        if (remote->state == Mesi::Modified) {
            llc_line.data = remote->data;
            llc_line.dirty = true;
        }
        _l1[o].invalidate(*remote);
        llc_line.owner = kNoCore;
        llc_line.sharers &= ~(1ull << o);
    }
    for (CoreId o = 0; o < _cfg.num_cores; ++o) {
        if (o == c || !(llc_line.sharers & (1ull << o)))
            continue;
        L1Line *remote = _l1[o].find(block);
        BBB_ASSERT(remote, "sharer %u lacks block", o);
        lat += _l1_lat;
        ++_invalidations;
        _l1[o].invalidate(*remote);
    }

    L1Line &installed = installL1(c, block, lat);
    installed.data = llc_line.data;
    installed.state = Mesi::Modified;
    llc_line.sharers = (1ull << c);
    llc_line.owner = c;
    return installed;
}

AccessResult
CacheHierarchy::load(CoreId c, Addr addr, unsigned size, void *out)
{
    BBB_ASSERT(withinBlock(addr, size), "load crosses block boundary");
    BBB_ASSERT(c < _cfg.num_cores, "bad core id");
    ++_loads;

    Tick lat = 0;
    L1Line &line = getForRead(c, blockAlign(addr), lat);
    std::memcpy(out, line.data.bytes.data() + blockOffset(addr), size);
    return {lat, StoreStatus::Done};
}

AccessResult
CacheHierarchy::store(CoreId c, Addr addr, unsigned size, const void *src)
{
    BBB_ASSERT(withinBlock(addr, size), "store crosses block boundary");
    BBB_ASSERT(c < _cfg.num_cores, "bad core id");

    Addr block = blockAlign(addr);
    bool persisting = _map.isPersistent(addr);

    // Check bbPB capacity before any state changes so a rejection is a
    // clean retry (the paper's rejection/stall, Fig. 8a).
    if (persisting && !_backend->canAcceptPersist(c, block))
        return {_l1_lat, StoreStatus::RetryPersist};

    ++_stores;
    Tick lat = 0;
    L1Line &line = getForWrite(c, block, lat);
    std::memcpy(line.data.bytes.data() + blockOffset(addr), src, size);

    if (persisting) {
        // Invariant 4: the block may live in at most one bbPB. Any other
        // core's entry is removed without draining -- the obligation to
        // persist moves here with M ownership (Fig. 6a/b). The paper
        // routes this notification through cache inclusion; we model the
        // same message with a direct holder lookup.
        CoreId h = _backend->holder(block);
        if (h != kNoCore && h != c)
            _backend->onInvalidateForWrite(h, block);
        ++_persisting_stores;
        LlcLine *llc_line = _llc.find(block);
        BBB_ASSERT(llc_line, "stored block missing from LLC");
        llc_line->persistent = true;
        _backend->persistStore(c, addr, size, line.data);
    }
    return {lat, StoreStatus::Done};
}

Tick
CacheHierarchy::flushBlock(CoreId c, Addr addr)
{
    (void)c;
    ++_flushes;
    Addr block = blockAlign(addr);
    Tick lat = _l1_lat;

    LlcLine *llc_line = _llc.find(block);
    if (!llc_line)
        return lat; // not cached anywhere (inclusive LLC)

    lat += _llc_lat - _l1_lat;

    // Freshest copy: M owner's L1 data beats the LLC copy.
    bool dirty = llc_line->dirty;
    if (llc_line->owner != kNoCore) {
        L1Line *owner_line = _l1[llc_line->owner].find(block);
        BBB_ASSERT(owner_line, "owner lacks block");
        if (owner_line->state == Mesi::Modified) {
            llc_line->data = owner_line->data;
            llc_line->dirty = false;
            owner_line->state = Mesi::Exclusive; // written back, now clean
            dirty = true;
            lat += _l1_lat;
        }
    }

    if (dirty) {
        writebackToMemory(block, llc_line->data, lat);
        llc_line->dirty = false;
        lat += _cfg.cycles(kBbpbDrainLatencyCycles);
    }
    return lat;
}

void
CacheHierarchy::peek(Addr addr, unsigned size, void *out)
{
    BBB_ASSERT(withinBlock(addr, size), "peek crosses block boundary");
    Addr block = blockAlign(addr);

    const LlcLine *llc_line = _llc.find(block);
    if (llc_line) {
        if (llc_line->owner != kNoCore) {
            const L1Line *l1_line = _l1[llc_line->owner].find(block);
            if (l1_line && l1_line->state == Mesi::Modified) {
                std::memcpy(out,
                            l1_line->data.bytes.data() + blockOffset(addr),
                            size);
                return;
            }
        }
        std::memcpy(out, llc_line->data.bytes.data() + blockOffset(addr),
                    size);
        return;
    }

    BlockData data;
    ctrlFor(block).peekBlock(block, data);
    std::memcpy(out, data.bytes.data() + blockOffset(addr), size);
}

const L1Line *
CacheHierarchy::modifiedL1Copy(Addr block, const LlcLine &line) const
{
    if (line.owner == kNoCore)
        return nullptr;
    const L1Line *l1_line = _l1[line.owner].find(block);
    return l1_line && l1_line->state == Mesi::Modified ? l1_line : nullptr;
}

std::vector<PersistRecord>
CacheHierarchy::collectDirtyNvmm(std::uint64_t *from_l1) const
{
    std::vector<PersistRecord> out;
    std::uint64_t l1_sourced = 0;
    _llc.forEachValid([&](Addr block, const LlcLine &line) {
        if (_map.kind(block) != MemKind::Nvmm)
            return;
        if (const L1Line *m = modifiedL1Copy(block, line)) {
            out.push_back({block, m->data});
            ++l1_sourced;
        } else if (line.dirty) {
            out.push_back({block, line.data});
        }
    });
    if (from_l1)
        *from_l1 = l1_sourced;
    return out;
}

std::uint64_t
CacheHierarchy::countDirtyNvmm() const
{
    std::uint64_t n = 0;
    _llc.forEachValid([&](Addr block, const LlcLine &line) {
        if (_map.kind(block) == MemKind::Nvmm &&
            (line.dirty || modifiedL1Copy(block, line)))
            ++n;
    });
    return n;
}

DirtyStats
CacheHierarchy::dirtyStats() const
{
    DirtyStats s;
    for (const auto &l1 : _l1) {
        l1.forEachValid([&](Addr, const L1Line &line) {
            ++s.l1_valid_blocks;
            if (line.state == Mesi::Modified)
                ++s.l1_dirty_blocks;
        });
    }
    _llc.forEachValid([&](Addr block, const LlcLine &line) {
        ++s.llc_valid_blocks;
        if (line.dirty || modifiedL1Copy(block, line))
            ++s.llc_dirty_blocks;
    });
    return s;
}

void
CacheHierarchy::checkInvariants() const
{
    // Every valid L1 line is covered by the inclusive LLC and consistent
    // with the directory.
    for (CoreId c = 0; c < _cfg.num_cores; ++c) {
        _l1[c].forEachValid([&](Addr block, const L1Line &line) {
            if (line.state == Mesi::Invalid)
                return;
            const LlcLine *llc_line = _llc.find(block);
            BBB_ASSERT(llc_line, "L1 block %#llx not in LLC (core %u)",
                       (unsigned long long)block, c);
            BBB_ASSERT(llc_line->sharers & (1ull << c),
                       "directory misses sharer %u for %#llx", c,
                       (unsigned long long)block);
            if (line.state == Mesi::Modified ||
                line.state == Mesi::Exclusive) {
                BBB_ASSERT(llc_line->owner == c,
                           "M/E copy without ownership (core %u)", c);
                BBB_ASSERT(llc_line->sharers == (1ull << c),
                           "M/E copy with other sharers");
            }
        });
    }

    // Directory entries point at real copies; single-writer holds.
    _llc.forEachValid([&](Addr block, const LlcLine &line) {
        if (line.owner != kNoCore) {
            const L1Line *l1_line = _l1[line.owner].find(block);
            BBB_ASSERT(l1_line && canWriteSilently(l1_line->state),
                       "stale owner %u for %#llx", line.owner,
                       (unsigned long long)block);
        }
        for (CoreId c = 0; c < _cfg.num_cores; ++c) {
            if (!(line.sharers & (1ull << c)))
                continue;
            const L1Line *l1_line = _l1[c].find(block);
            BBB_ASSERT(l1_line && l1_line->state != Mesi::Invalid,
                       "stale sharer bit %u for %#llx", c,
                       (unsigned long long)block);
        }
    });

    // bbPB residency invariants: a held block is in the holder's L1 and in
    // the LLC, and held by exactly one core (Invariant 4). The ownership
    // index enforces uniqueness structurally; cross-check that holder()
    // and holds() agree for every LLC-resident block.
    _llc.forEachValid([&](Addr block, const LlcLine &) {
        CoreId h = _backend->holder(block);
        for (CoreId c = 0; c < _cfg.num_cores; ++c) {
            BBB_ASSERT(_backend->holds(c, block) ==
                           (c == h && h != kNoCore),
                       "holder()/holds() disagree for %#llx (core %u)",
                       (unsigned long long)block, c);
        }
    });

    // The same invariants walked from the bbPB side, which also catches
    // entries whose block silently left the caches (invisible above).
    // Dirty inclusion (Section III-B/III-D): every held block must still
    // be LLC-resident and flagged persistent — LLC evictions force a
    // drain, so an orphaned entry means that forced drain was missed and
    // a later refetch could read stale media.
    _backend->forEachHeld([&](CoreId holder, Addr block) {
        const LlcLine *llc_line = _llc.find(block);
        BBB_ASSERT(llc_line,
                   "bbPB block %#llx (core %u) not LLC-resident",
                   (unsigned long long)block, holder);
        BBB_ASSERT(llc_line->persistent,
                   "bbPB block %#llx not flagged persistent in LLC",
                   (unsigned long long)block);
        BBB_ASSERT(_backend->holder(block) == holder,
                   "block %#llx enumerated for core %u but holder() says %u",
                   (unsigned long long)block, holder,
                   _backend->holder(block));
    });
}

} // namespace bbb
