#include "mem/ftl/ftl_media.hh"

#include <algorithm>
#include <cstring>
#include <functional>

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
      _channels(std::max(1u, channels)), _chan(_channels)
{
    BBB_ASSERT(_cfg.endurance_cycles > 0, "zero endurance");
    // Span the wear histogram over the endurance limit: 16 buckets from
    // factory-fresh to retirement, plus the built-in overflow bucket.
    _stats.reshapeWear(
        16, std::max<std::uint64_t>(1, _cfg.endurance_cycles / 16));
}

FtlMedia::~FtlMedia() = default;

std::uint64_t
FtlMedia::frameOf(Addr block) const
{
    const std::uint64_t *frame = _pmt.find(block);
    return frame ? *frame : kNoFrame;
}

std::size_t
FtlMedia::freeFrames(unsigned channel) const
{
    BBB_ASSERT(channel < _channels, "bad channel");
    return _chan[channel].free.size();
}

std::uint64_t
FtlMedia::frameWear(std::uint64_t frame) const
{
    return frame < _frames.size() ? _frames[frame].wear : 0;
}

std::uint64_t
FtlMedia::allocFrame(unsigned channel)
{
    Channel &c = _chan[channel];
    if (c.free.empty()) {
        // Minted in id order at wear 0, so the batch is already sorted.
        for (std::uint64_t i = 0; i < kMintBatch; ++i) {
            // frame % channels == channel, so a remap can never move a
            // block's traffic off its interleave channel.
            std::uint64_t id = channel + _channels * c.minted++;
            if (id >= _frames.size())
                _frames.resize(id + 1);
            _frames[id].minted = true;
            c.free.emplace_back(0, id);
            ++_stats.frames_minted;
        }
    }
    std::uint64_t frame = c.free.front().second; // dynamic WL: least worn
    c.free.erase(c.free.begin());
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
FtlMedia::mapFrame(Addr block, std::uint64_t frame)
{
    Frame &f = _frames[frame];
    f.logical = block;
    Channel &c = _chan[channelOf(block)];
    if (f.wear >= c.mapped.size())
        c.mapped.resize(f.wear + 1);
    WearBucket &b = c.mapped[f.wear];
    b.frames.push_back(frame);
    std::push_heap(b.frames.begin(), b.frames.end(), std::greater<>{});
    ++b.live;
    ++c.mapped_live;
    c.coldest = std::min(c.coldest, f.wear);
}

void
FtlMedia::unmapFrame(std::uint64_t frame)
{
    Frame &f = _frames[frame];
    f.logical = kNoFrame;
    Channel &c = _chan[frame % _channels];
    WearBucket &b = c.mapped[f.wear];
    --b.live;
    --c.mapped_live;
    if (b.live == 0) {
        b.frames.clear();
    } else if (b.frames.size() > 2 * b.live) {
        // More stale ids than valid ones: rebuild from the valid ones.
        std::uint64_t wear = f.wear;
        std::erase_if(b.frames, [&](std::uint64_t id) {
            return _frames[id].logical == kNoFrame || _frames[id].wear != wear;
        });
        std::make_heap(b.frames.begin(), b.frames.end(), std::greater<>{});
    }
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
    auto &free = _chan[frame % _channels].free;
    std::pair<std::uint64_t, std::uint64_t> entry{f.wear, frame};
    free.insert(std::upper_bound(free.begin(), free.end(), entry), entry);
    BBB_ASSERT(free.size() <= kMintBatch, "free pool over one mint batch");
}

std::pair<std::uint64_t, std::uint64_t>
FtlMedia::coldestMapped(unsigned channel)
{
    Channel &c = _chan[channel];
    BBB_ASSERT(c.mapped_live > 0, "no mapped frame");
    while (c.mapped[c.coldest].live == 0)
        ++c.coldest;
    std::uint64_t wear = c.coldest;
    auto &heap = c.mapped[wear].frames;
    for (;;) {
        const Frame &f = _frames[heap.front()];
        if (f.logical != kNoFrame && f.wear == wear)
            return {wear, heap.front()};
        std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
        heap.pop_back();
    }
}

void
FtlMedia::maybeWearLevel(unsigned channel)
{
    Channel &c = _chan[channel];
    if (c.mapped_live == 0 || c.free.empty())
        return;
    auto [cold_wear, cold] = coldestMapped(channel);
    auto [hot_wear, hot] = c.free.back(); // most worn free frame
    if (hot_wear < cold_wear + _cfg.wear_delta)
        return;

    // Static WL: park the cold block on the worn frame so the cold
    // frame's remaining endurance rejoins the free pool for hot writes.
    Frame &src = _frames[cold];
    Addr logical = src.logical;
    c.free.pop_back();
    if (_timing) {
        _timing->reserveMediaChannel(channel,
                                     _timing->mediaReadOccupancy() +
                                         _timing->mediaWriteOccupancy());
    }
    program(hot, src.data);
    mapFrame(logical, hot);
    *_pmt.find(logical) = hot;
    ++_stats.migrations;
    unmapFrame(cold);
}

void
FtlMedia::reprogram(Addr block, const BlockData &data)
{
    // One probe serves the whole rewrite: the old frame goes back to the
    // pool before the allocation, and the same cell takes the new frame.
    std::uint64_t *mapped = _pmt.find(block);
    if (mapped)
        unmapFrame(*mapped);
    std::uint64_t frame = allocFrame(channelOf(block));
    program(frame, data);
    mapFrame(block, frame);
    if (mapped)
        *mapped = frame;
    else
        _pmt.insertGrowing(block, frame);
    ++_stats.demand_programs;
}

void
FtlMedia::commitBlock(Addr block, const BlockData &data)
{
    reprogram(block, data);
    if (++_since_wl >= std::max(1u, _cfg.wl_interval)) {
        _since_wl = 0;
        maybeWearLevel(channelOf(block));
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
    reprogram(block, merged);
    ++_stats.torn_programs;
}

void
FtlMedia::readBlock(Addr block, unsigned char *out)
{
    if (const std::uint64_t *frame = _pmt.find(block)) {
        _frames[*frame].data.copyTo(out);
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
        if (const std::uint64_t *frame = _pmt.find(block))
            std::memcpy(_frames[*frame].data.bytes.data() + off, p, chunk);
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
    std::vector<std::pair<Addr, std::uint64_t>> mapping;
    mapping.reserve(_pmt.size());
    _pmt.forEach([&](Addr block, std::uint64_t frame) {
        mapping.emplace_back(block, frame);
    });
    std::sort(mapping.begin(), mapping.end());
    for (const auto &[block, frame] : mapping)
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
    m.setReal("media.frames.max_wear", static_cast<double>(max_wear));
    m.setReal("media.frames.mean_wear", mean_wear);

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
    m.setReal("media.lifetime.dwpd_observed", dwpd_observed);
    m.setReal("media.lifetime.projected_days", projected_days);
    m.setReal("media.lifetime.rated_days", rated_days);
}

} // namespace bbb
