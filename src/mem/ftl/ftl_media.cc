#include "mem/ftl/ftl_media.hh"

#include <algorithm>
#include <cstring>

namespace bbb
{

namespace
{
/** Frames minted per channel when its free pool runs dry: the model's
 *  over-provisioning grain, and the choice set dynamic wear leveling
 *  picks the least-worn allocation from. */
constexpr std::uint64_t kMintBatch = 8;
} // namespace

FtlMedia::FtlMedia(BackingStore &logical, const MediaModelConfig &cfg,
                   unsigned channels)
    : _logical(logical), _cfg(cfg),
      _channels(std::max(1u, channels)),
      _free(_channels), _mapped(_channels), _minted(_channels, 0)
{
    BBB_ASSERT(_cfg.endurance_cycles > 0, "zero endurance");
    // Span the wear histogram over the endurance limit: 16 buckets from
    // factory-fresh to retirement, plus the built-in overflow bucket.
    _stats.reshapeWear(
        16, std::max<std::uint64_t>(1, _cfg.endurance_cycles / 16));
}

std::uint64_t
FtlMedia::frameOf(Addr block) const
{
    auto it = _pmt.find(block);
    return it == _pmt.end() ? kNoFrame : it->second;
}

std::size_t
FtlMedia::freeFrames(unsigned channel) const
{
    BBB_ASSERT(channel < _channels, "bad channel");
    return _free[channel].size();
}

std::uint64_t
FtlMedia::frameWear(std::uint64_t frame) const
{
    return frame < _frames.size() ? _frames[frame].wear : 0;
}

std::uint64_t
FtlMedia::allocFrame(unsigned channel)
{
    if (_free[channel].empty()) {
        for (std::uint64_t i = 0; i < kMintBatch; ++i) {
            // frame % channels == channel, so a remap can never move a
            // block's traffic off its interleave channel.
            std::uint64_t id = channel + _channels * _minted[channel]++;
            if (id >= _frames.size())
                _frames.resize(id + 1);
            _frames[id].minted = true;
            _free[channel].insert({0, id});
            ++_stats.frames_minted;
        }
    }
    auto it = _free[channel].begin(); // dynamic WL: least-worn free frame
    std::uint64_t frame = it->second;
    _free[channel].erase(it);
    return frame;
}

void
FtlMedia::program(std::uint64_t frame, const BlockData &data)
{
    Frame &f = _frames[frame];
    BBB_ASSERT(f.minted && !f.retired, "programming a dead frame");
    f.data = data;
    ++f.wear;
    _stats.wear.sample(f.wear);
    ++_stats.programs;
    _stats.program_bytes += kBlockSize;
}

void
FtlMedia::mapBlock(Addr block, std::uint64_t frame)
{
    Frame &f = _frames[frame];
    f.logical = block;
    _pmt[block] = frame;
    _mapped[channelOf(block)].insert({f.wear, frame});
}

void
FtlMedia::releaseMapping(Addr block)
{
    auto it = _pmt.find(block);
    if (it == _pmt.end())
        return;
    std::uint64_t frame = it->second;
    _pmt.erase(it);
    Frame &f = _frames[frame];
    _mapped[channelOf(block)].erase({f.wear, frame});
    f.logical = kNoFrame;
    freeOrRetire(frame);
}

void
FtlMedia::freeOrRetire(std::uint64_t frame)
{
    Frame &f = _frames[frame];
    if (f.wear >= _cfg.endurance_cycles) {
        f.retired = true;
        ++_stats.retired_frames;
        return;
    }
    _free[frame % _channels].insert({f.wear, frame});
}

void
FtlMedia::maybeWearLevel(unsigned channel)
{
    if (_mapped[channel].empty() || _free[channel].empty())
        return;
    auto cold = *_mapped[channel].begin();  // (wear, frame) coldest mapped
    auto hot = *_free[channel].rbegin();    // most worn free frame
    if (hot.first < cold.first + _cfg.wear_delta)
        return;

    // Static WL: park the cold block on the worn frame so the cold
    // frame's remaining endurance rejoins the free pool for hot writes.
    Frame &src = _frames[cold.second];
    Addr logical = src.logical;
    BBB_ASSERT(logical != kNoFrame, "mapped pool holds an unmapped frame");
    _free[channel].erase(hot);
    _mapped[channel].erase(cold);
    _pmt.erase(logical);
    if (_timing) {
        _timing->reserveMediaChannel(channel,
                                     _timing->mediaReadOccupancy() +
                                         _timing->mediaWriteOccupancy());
    }
    program(hot.second, src.data);
    mapBlock(logical, hot.second);
    ++_stats.migrations;
    src.logical = kNoFrame;
    freeOrRetire(cold.second);
}

void
FtlMedia::commitBlock(Addr block, const BlockData &data)
{
    unsigned ch = channelOf(block);
    releaseMapping(block); // out-of-place: old frame back to the pool
    std::uint64_t frame = allocFrame(ch);
    program(frame, data);
    mapBlock(block, frame);
    ++_stats.demand_programs;
    if (++_since_wl >= std::max(1u, _cfg.wl_interval)) {
        _since_wl = 0;
        maybeWearLevel(ch);
    }
}

void
FtlMedia::commitTorn(Addr block, const BlockData &intended,
                     unsigned torn_bytes)
{
    // A torn program still burns a whole frame: read-modify-write the
    // logical content with the prefix that landed, program out of place.
    BlockData merged;
    readBlock(block, merged.bytes.data());
    std::memcpy(merged.bytes.data(), intended.bytes.data(),
                std::min<std::size_t>(torn_bytes, kBlockSize));
    unsigned ch = channelOf(block);
    releaseMapping(block);
    std::uint64_t frame = allocFrame(ch);
    program(frame, merged);
    mapBlock(block, frame);
    ++_stats.demand_programs;
    ++_stats.torn_programs;
}

void
FtlMedia::readBlock(Addr block, unsigned char *out)
{
    auto it = _pmt.find(block);
    if (it != _pmt.end()) {
        _frames[it->second].data.copyTo(out);
        return;
    }
    // Never programmed through the FTL: the warm-up image lives in the
    // logical store.
    _logical.readBlock(block, out);
}

void
FtlMedia::writeBytes(Addr addr, const void *src, std::size_t size)
{
    // Crash-time sub-block patch (battery-backed store-buffer entry).
    // Patch the mapped frame in place when one exists; the flatten at
    // onCrashComplete() carries it into the logical image.
    const unsigned char *p = static_cast<const unsigned char *>(src);
    while (size > 0) {
        Addr block = blockAlign(addr);
        std::size_t off = static_cast<std::size_t>(addr - block);
        std::size_t chunk = std::min(size, kBlockSize - off);
        auto it = _pmt.find(block);
        if (it != _pmt.end())
            std::memcpy(_frames[it->second].data.bytes.data() + off, p,
                        chunk);
        else
            _logical.write(addr, p, chunk);
        addr += chunk;
        p += chunk;
        size -= chunk;
    }
    ++_stats.byte_writes;
}

void
FtlMedia::onCrashComplete()
{
    // The reboot "mount": replay the reconstructed mapping into the
    // logical image, in address order, so the raw post-crash walk
    // (RecoveryManager) reads every block through the remap table.
    for (const auto &[block, frame] : _pmt)
        _logical.writeBlock(block, _frames[frame].data.bytes.data());
}

void
FtlMedia::addDerivedMetrics(MetricSnapshot &m, double exec_seconds) const
{
    MediaBackend::addDerivedMetrics(m, exec_seconds);

    std::uint64_t minted = 0, max_wear = 0, wear_sum = 0;
    for (const Frame &f : _frames) {
        if (!f.minted)
            continue;
        ++minted;
        max_wear = std::max(max_wear, f.wear);
        wear_sum += f.wear;
    }
    double mean_wear =
        minted ? static_cast<double>(wear_sum) / minted : 0.0;

    m.setCount("media.frames.in_service", _pmt.size());
    m.setLevel("media.frames.max_wear", static_cast<double>(max_wear));
    m.setLevel("media.frames.mean_wear", mean_wear);

    // Lifetime projection: days until the hottest frame reaches the
    // endurance limit at the observed wear rate, plus the observed
    // drive-writes-per-day against the configured DWPD rating. All
    // inputs are simulated quantities, so the leaves are deterministic.
    double exec_days = exec_seconds / 86400.0;
    double dwpd_observed =
        exec_days > 0.0 ? mean_wear / exec_days : 0.0;
    double projected_days =
        (max_wear > 0 && exec_days > 0.0)
            ? static_cast<double>(_cfg.endurance_cycles) * exec_days /
                  static_cast<double>(max_wear)
            : 0.0;
    double rated_days =
        _cfg.dwpd_rating > 0.0
            ? static_cast<double>(_cfg.endurance_cycles) / _cfg.dwpd_rating
            : 0.0;
    m.setLevel("media.lifetime.dwpd_observed", dwpd_observed);
    m.setLevel("media.lifetime.projected_days", projected_days);
    m.setLevel("media.lifetime.rated_days", rated_days);
}

} // namespace bbb
