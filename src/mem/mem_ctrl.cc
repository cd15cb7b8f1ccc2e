#include "mem/mem_ctrl.hh"

#include <algorithm>
#include <utility>

#include "fault/fault_injector.hh"

namespace bbb
{

namespace
{

/** A DRAM controller is configured with wpq_entries == 0; give it a
 *  conventional write queue anyway (it just is not a persistence
 *  domain -- the crash engine never drains it). */
MemConfig
withWriteQueue(MemConfig cfg)
{
    if (cfg.wpq_entries == 0)
        cfg.wpq_entries = 64;
    return cfg;
}

} // namespace

MemCtrl::MemCtrl(std::string name, const MemConfig &cfg, EventQueue &eq,
                 MediaBackend &media, StatRegistry &stats)
    : _name(std::move(name)), _cfg(withWriteQueue(cfg)), _eq(eq),
      _media(media), _wpq(_cfg.wpq_entries), _wpq_index(_cfg.wpq_entries)
{
    BBB_ASSERT(_cfg.channels > 0, "controller needs >= 1 channel");
    _channel_free.assign(_cfg.channels, 0);
    _wpq_occupancy = StatHistogram(
        16, std::max<std::uint64_t>(1, _cfg.wpq_entries / 16));

    _media.attachTiming(this);

    StatGroup &g = stats.group(_name);
    g.addCounter("media_reads", &_media_reads, "block reads from media");
    g.addCounter("media_writes", &_media_writes, "block writes to media");
    g.addCounter("bytes_written", &_bytes_written, "bytes written to media");
    g.addCounter("wpq_coalesces", &_wpq_coalesces,
                 "writes merged into a pending WPQ block");
    g.addCounter("wpq_rejects", &_wpq_rejects,
                 "writes rejected because the WPQ was full");
    g.addCounter("wpq_inserts", &_wpq_inserts, "blocks accepted into WPQ");
    g.addCounter("wpq_bypass_writes", &_wpq_bypass_writes,
                 "blocks force-written past a full WPQ");
    g.addCounter("media_retry_writes", &_media_retry_writes,
                 "media write attempts retried after injected failures");
    g.addAverage("read_latency_ticks", &_read_latency,
                 "average block read latency");
    g.addHistogram("wpq_occupancy", &_wpq_occupancy,
                   "WPQ occupancy sampled at each insert and retire");
}

Tick
MemCtrl::reserveChannel(unsigned channel, Tick occupancy)
{
    Tick start = std::max(_eq.now(), _channel_free[channel]);
    _channel_free[channel] = start + occupancy;
    return start;
}

Tick
MemCtrl::readBlock(Addr addr, BlockData &out)
{
    Addr block = blockAlign(addr);

    // Forward the freshest pending copy from the WPQ if present; this does
    // not consume media bandwidth.
    if (const std::uint32_t *slot = _wpq_index.find(block)) {
        out = _wpq[*slot].data;
        // Forwarding from the controller queue still pays most of the
        // round trip; model it as half the media read latency.
        Tick lat = _cfg.read_latency / 2;
        _read_latency.sample(static_cast<double>(lat));
        return lat;
    }

    _media.readBlock(block, out.bytes.data());
    // While power is on the controller forwards the intended content of a
    // torn block (the write data lingers in its buffers); the tear only
    // surfaces in the post-crash image. See FaultInjector::intendedContent.
    if (_faults) {
        if (const BlockData *intended = _faults->intendedContent(block))
            out = *intended;
    }
    ++_media_reads;
    Tick start = reserveChannel(channelOf(block), _cfg.read_occupancy);
    Tick lat = (start - _eq.now()) + _cfg.read_latency;
    _read_latency.sample(static_cast<double>(lat));
    return lat;
}

bool
MemCtrl::canAcceptWrite(Addr addr) const
{
    Addr block = blockAlign(addr);
    if (_wpq_index.find(block))
        return true; // coalesce
    return !_wpq.full();
}

bool
MemCtrl::enqueueWrite(Addr addr, const BlockData &data)
{
    Addr block = blockAlign(addr);

    if (std::uint32_t *slot = _wpq_index.find(block)) {
        _wpq[*slot].data = data;
        ++_wpq_coalesces;
        return true;
    }

    if (_wpq.full()) {
        ++_wpq_rejects;
        return false;
    }

    std::uint32_t slot = _wpq.pushBack();
    _wpq[slot] = WpqEntry{block, data, 0};
    _wpq_index.insert(block, slot);
    ++_wpq_inserts;
    _wpq_occupancy.sample(_wpq.size());
    scheduleRetire(slot);
    return true;
}

void
MemCtrl::scheduleRetire(std::uint32_t slot)
{
    // Writes pipeline on their channels: the occupancy serialises
    // bandwidth, and each write completes a full write latency after it
    // starts.
    std::uint64_t epoch = _wpq_epoch;
    Tick start =
        reserveChannel(channelOf(_wpq[slot].addr), _cfg.write_occupancy);
    _eq.schedule(
        start + _cfg.write_latency,
        [this, slot, epoch]() { completeRetire(slot, epoch); },
        EventPriority::MemResponse);
}

MediaAttempt
MemCtrl::attemptWrite(Addr block, const BlockData &data, unsigned failed)
{
    if (_faults && _faults->sampleMediaAttemptFails()) {
        if (failed < _faults->plan().media_retries) {
            ++_media_retry_writes;
            return MediaAttempt::Retry;
        }
        // Retries exhausted: the media tears the block, persisting only
        // its first half; the ledger keeps the intended content.
        _media.commitTorn(block, data, FaultInjector::kTornBytes);
        _faults->noteDamaged(block, data);
        ++_media_writes;
        _bytes_written += FaultInjector::kTornBytes;
        return MediaAttempt::Torn;
    }
    _media.commitBlock(block, data);
    if (_faults)
        _faults->noteCleanWrite(block);
    ++_media_writes;
    _bytes_written += kBlockSize;
    return MediaAttempt::Landed;
}

MediaAttempt
MemCtrl::writeThrough(Addr block, const BlockData &data, unsigned &retries)
{
    retries = 0;
    MediaAttempt r;
    while ((r = attemptWrite(block, data, retries)) == MediaAttempt::Retry)
        ++retries;
    return r;
}

void
MemCtrl::completeRetire(std::uint32_t slot, std::uint64_t epoch)
{
    // A crash handover (takeWpqForCrash) cleared the queue after this
    // event was scheduled: the entry is gone and the channel state was
    // reset. The event is simply stale.
    if (epoch != _wpq_epoch)
        return;

    WpqEntry &e = _wpq[slot];
    BBB_ASSERT(e.addr != kBadAddr, "retired WPQ entry vanished");

    if (attemptWrite(e.addr, e.data, e.attempts) == MediaAttempt::Retry) {
        // Retry after exponential backoff; the entry stays pending (and
        // durable) in the WPQ, its channel slot is re-reserved, and the
        // backoff is charged as extra retirement latency.
        ++e.attempts;
        Tick backoff = _faults->plan().media_backoff << (e.attempts - 1);
        reserveChannel(channelOf(e.addr), _cfg.write_occupancy);
        _eq.schedule(
            _eq.now() + backoff + _cfg.write_latency,
            [this, slot, epoch]() { completeRetire(slot, epoch); },
            EventPriority::MemResponse);
        return;
    }
    // Landed or torn, the entry leaves the WPQ; a tear breaks the
    // durability guarantee, which is exactly what the fault models.
    _wpq_index.erase(e.addr);
    e.addr = kBadAddr;
    _wpq.remove(slot);
    _wpq_occupancy.sample(_wpq.size());
}

void
MemCtrl::forceWrite(Addr addr, const BlockData &data)
{
    Addr block = blockAlign(addr);
    // If the block is pending in the WPQ, coalesce there instead so a
    // later retirement cannot overwrite this value with an older one.
    if (std::uint32_t *slot = _wpq_index.find(block)) {
        _wpq[*slot].data = data;
        ++_wpq_coalesces;
        return;
    }
    ++_wpq_bypass_writes;
    unsigned retries = 0;
    writeThrough(block, data, retries);
}

void
MemCtrl::peekBlock(Addr addr, BlockData &out) const
{
    Addr block = blockAlign(addr);
    if (const std::uint32_t *slot = _wpq_index.find(block)) {
        out = _wpq[*slot].data;
        return;
    }
    _media.readBlock(block, out.bytes.data());
    if (_faults) {
        if (const BlockData *intended = _faults->intendedContent(block))
            out = *intended;
    }
}

std::vector<std::pair<Addr, BlockData>>
MemCtrl::takeWpqForCrash()
{
    std::vector<std::pair<Addr, BlockData>> out;
    out.reserve(_wpq.size());
    for (std::uint32_t s = _wpq.head(); s != Wpq::kNil; s = _wpq.next(s))
        out.emplace_back(_wpq[s].addr, _wpq[s].data);
    _wpq.clear();
    _wpq_index.clear();
    ++_wpq_epoch; // orphan any still-scheduled retirements
    // A reseeded post-crash controller must not inherit channel
    // reservations from writes that no longer exist.
    _channel_free.assign(_cfg.channels, 0);
    return out;
}

void
MemCtrl::crashPatch(Addr addr, const void *src, unsigned size)
{
    _media.writeBytes(addr, src, size);
    if (_faults)
        _faults->noteDrainedBytes(addr, src, size);
}

} // namespace bbb
