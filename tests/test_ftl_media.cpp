/**
 * @file
 * Unit tests for the media seam: DirectMedia's pass-through contract and
 * FtlMedia's remapping, out-of-place wear, torn-program RMW, crash-time
 * flatten, static wear-leveling, and graceful endurance retirement; and
 * FtlMedia's flat tables checked choice for choice against a reference
 * model on ordered trees.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "mem/backing_store.hh"
#include "mem/ftl/ftl_media.hh"

using namespace bbb;

namespace
{

BlockData
pattern(unsigned char v)
{
    BlockData d;
    d.bytes.fill(v);
    return d;
}

Addr
blk(unsigned i)
{
    return static_cast<Addr>(i) * kBlockSize;
}

MediaModelConfig
ftlCfg(std::uint64_t endurance, unsigned wear_delta, unsigned wl_interval)
{
    MediaModelConfig cfg;
    cfg.kind = MediaKind::Ftl;
    cfg.endurance_cycles = endurance;
    cfg.wear_delta = wear_delta;
    cfg.wl_interval = wl_interval;
    return cfg;
}

/** MediaTiming stub: counts the reservations background traffic makes. */
struct CountingTiming : MediaTiming
{
    unsigned calls = 0;
    Tick last_busy = 0;

    Tick
    reserveMediaChannel(unsigned, Tick busy) override
    {
        ++calls;
        last_busy = busy;
        return 0;
    }

    Tick mediaReadOccupancy() const override { return 10; }
    Tick mediaWriteOccupancy() const override { return 28; }
};

/**
 * The FTL's decisions on a std::map page-mapping table and
 * std::set<(wear, frame)> pools: the reference FtlMedia's flat tables
 * must match choice for choice.
 */
class RefFtl
{
  public:
    RefFtl(BackingStore &logical, const MediaModelConfig &cfg,
           unsigned channels)
        : _logical(logical), _cfg(cfg), _channels(channels),
          _free(channels), _mapped(channels), _minted(channels, 0)
    {
    }

    void
    commitBlock(Addr block, const BlockData &data)
    {
        reprogram(block, data);
        if (++_since_wl >= std::max(1u, _cfg.wl_interval)) {
            _since_wl = 0;
            wearLevel(mediaChannelOf(block, _channels));
        }
    }

    void
    commitTorn(Addr block, const BlockData &intended, unsigned torn_bytes)
    {
        BlockData merged;
        readBlock(block, merged.bytes.data());
        std::memcpy(merged.bytes.data(), intended.bytes.data(),
                    std::min<std::size_t>(torn_bytes, kBlockSize));
        reprogram(block, merged);
        ++torn_programs;
    }

    void
    readBlock(Addr block, unsigned char *out) const
    {
        auto it = _pmt.find(block);
        if (it != _pmt.end())
            _frames[it->second].data.copyTo(out);
        else
            _logical.readBlock(block, out);
    }

    void
    writeBytes(Addr addr, const void *src, std::size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(src);
        while (size > 0) {
            Addr block = blockAlign(addr);
            std::size_t off = addr - block;
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
        ++byte_writes;
    }

    void
    onCrashComplete()
    {
        for (const auto &[block, frame] : _pmt)
            _logical.writeBlock(block, _frames[frame].data.bytes.data());
    }

    std::uint64_t
    frameOf(Addr block) const
    {
        auto it = _pmt.find(block);
        return it == _pmt.end() ? FtlMedia::kNoFrame : it->second;
    }
    std::uint64_t
    frameWear(std::uint64_t frame) const
    {
        return frame < _frames.size() ? _frames[frame].wear : 0;
    }
    std::size_t freeFrames(unsigned ch) const { return _free[ch].size(); }
    std::size_t mappedBlocks() const { return _pmt.size(); }

    std::uint64_t programs = 0, demand_programs = 0, torn_programs = 0,
                  byte_writes = 0, migrations = 0, retired_frames = 0,
                  frames_minted = 0;

  private:
    struct Frame
    {
        Addr logical = FtlMedia::kNoFrame;
        std::uint64_t wear = 0;
        BlockData data{};
    };
    using Pool = std::set<std::pair<std::uint64_t, std::uint64_t>>;

    void
    reprogram(Addr block, const BlockData &data)
    {
        unsigned ch = mediaChannelOf(block, _channels);
        if (auto it = _pmt.find(block); it != _pmt.end()) {
            std::uint64_t old = it->second;
            _pmt.erase(it);
            _mapped[ch].erase({_frames[old].wear, old});
            freeOrRetire(old);
        }
        if (_free[ch].empty()) {
            for (int i = 0; i < 8; ++i) {
                std::uint64_t id = ch + _channels * _minted[ch]++;
                if (id >= _frames.size())
                    _frames.resize(id + 1);
                _free[ch].insert({0, id});
                ++frames_minted;
            }
        }
        std::uint64_t frame = _free[ch].begin()->second;
        _free[ch].erase(_free[ch].begin());
        burn(frame, data);
        map(block, frame);
        ++demand_programs;
    }

    void
    burn(std::uint64_t frame, const BlockData &data)
    {
        _frames[frame].data = data;
        ++_frames[frame].wear;
        ++programs;
    }

    void
    map(Addr block, std::uint64_t frame)
    {
        _frames[frame].logical = block;
        _pmt[block] = frame;
        _mapped[mediaChannelOf(block, _channels)].insert(
            {_frames[frame].wear, frame});
    }

    void
    freeOrRetire(std::uint64_t frame)
    {
        Frame &f = _frames[frame];
        f.logical = FtlMedia::kNoFrame;
        if (f.wear >= _cfg.endurance_cycles)
            ++retired_frames;
        else
            _free[frame % _channels].insert({f.wear, frame});
    }

    void
    wearLevel(unsigned ch)
    {
        if (_mapped[ch].empty() || _free[ch].empty())
            return;
        auto cold = *_mapped[ch].begin();
        auto hot = *_free[ch].rbegin();
        if (hot.first < cold.first + _cfg.wear_delta)
            return;
        Addr logical = _frames[cold.second].logical;
        _free[ch].erase(hot);
        _mapped[ch].erase(cold);
        burn(hot.second, _frames[cold.second].data);
        map(logical, hot.second);
        ++migrations;
        freeOrRetire(cold.second);
    }

    BackingStore &_logical;
    MediaModelConfig _cfg;
    unsigned _channels;
    std::vector<Frame> _frames;
    std::map<Addr, std::uint64_t> _pmt;
    std::vector<Pool> _free, _mapped;
    std::vector<std::uint64_t> _minted;
    unsigned _since_wl = 0;
};

} // namespace

TEST(DirectMedia, CommitsLandInTheBackingStoreUnchanged)
{
    BackingStore store;
    DirectMedia media(store);

    media.commitBlock(blk(1), pattern(7));
    EXPECT_EQ(store.read64(blk(1)), 0x0707070707070707ull);
    BlockData out;
    media.readBlock(blk(1), out.bytes.data());
    EXPECT_EQ(out.bytes[63], 7);

    // A torn commit persists only the prefix; the tail keeps old bytes.
    media.commitTorn(blk(1), pattern(9), kBlockSize / 2);
    store.readBlock(blk(1), out.bytes.data());
    EXPECT_EQ(out.bytes[0], 9);
    EXPECT_EQ(out.bytes[kBlockSize / 2 - 1], 9);
    EXPECT_EQ(out.bytes[kBlockSize / 2], 7);

    EXPECT_EQ(media.stats().programs.value(), 2u);
    EXPECT_EQ(media.stats().demand_programs.value(), 2u);
    EXPECT_EQ(media.stats().torn_programs.value(), 1u);

    std::uint64_t v = 0x1122334455667788ull;
    media.writeBytes(blk(2) + 8, &v, 8);
    std::uint64_t back = 0;
    media.readBlock(blk(2), out.bytes.data());
    std::memcpy(&back, out.bytes.data() + 8, 8);
    EXPECT_EQ(back, v);
    EXPECT_EQ(store.read64(blk(2) + 8), v);
    EXPECT_EQ(media.stats().byte_writes.value(), 1u);
}

TEST(FtlMedia, MappedBlocksReadThroughTheRemapTable)
{
    BackingStore store;
    FtlMedia media(store, ftlCfg(100, 8, 1000), 2);

    media.commitBlock(blk(3), pattern(5));
    EXPECT_NE(media.frameOf(blk(3)), FtlMedia::kNoFrame);
    BlockData out;
    media.readBlock(blk(3), out.bytes.data());
    EXPECT_EQ(out.bytes[0], 5);
    // The logical store is untouched until the crash-time flatten: the
    // frame, not the store, is the device truth.
    EXPECT_EQ(store.read64(blk(3)), 0u);
}

TEST(FtlMedia, UnmappedBlocksFallThroughToTheLogicalStore)
{
    // Warm-up functional writes bypass the FTL; reads of never-programmed
    // blocks must see them.
    BackingStore store;
    store.write64(blk(2), 12345);
    FtlMedia media(store, ftlCfg(100, 8, 1000), 2);

    BlockData out;
    media.readBlock(blk(2), out.bytes.data());
    std::uint64_t v = 0;
    std::memcpy(&v, out.bytes.data(), 8);
    EXPECT_EQ(v, 12345u);

    std::uint64_t sub = 0;
    media.readBlock(blk(2), out.bytes.data());
    std::memcpy(&sub, out.bytes.data(), 8);
    EXPECT_EQ(sub, 12345u);
}

TEST(FtlMedia, RewritesProgramOutOfPlaceAndWearFrames)
{
    BackingStore store;
    FtlMedia media(store, ftlCfg(100, 8, 1000), 1);

    media.commitBlock(blk(0), pattern(1));
    std::uint64_t first = media.frameOf(blk(0));
    media.commitBlock(blk(0), pattern(2));
    std::uint64_t second = media.frameOf(blk(0));

    // Out-of-place: the rewrite lands on a different (least-worn free)
    // frame; the old frame keeps its wear in the free pool.
    EXPECT_NE(first, second);
    EXPECT_EQ(media.frameWear(first), 1u);
    EXPECT_EQ(media.frameWear(second), 1u);
    BlockData out;
    media.readBlock(blk(0), out.bytes.data());
    EXPECT_EQ(out.bytes[0], 2);
    EXPECT_EQ(media.stats().programs.value(), 2u);
    EXPECT_EQ(media.stats().demand_programs.value(), 2u);
    EXPECT_EQ(media.mappedBlocks(), 1u);
}

TEST(FtlMedia, TornCommitMergesThePrefixWithOldContent)
{
    BackingStore store;
    FtlMedia media(store, ftlCfg(100, 8, 1000), 2);

    media.commitBlock(blk(0), pattern(0xaa));
    media.commitTorn(blk(0), pattern(0xbb), kBlockSize / 2);

    BlockData out;
    media.readBlock(blk(0), out.bytes.data());
    EXPECT_EQ(out.bytes[0], 0xbb);
    EXPECT_EQ(out.bytes[kBlockSize / 2 - 1], 0xbb);
    EXPECT_EQ(out.bytes[kBlockSize / 2], 0xaa);
    EXPECT_EQ(out.bytes[kBlockSize - 1], 0xaa);
    EXPECT_EQ(media.stats().torn_programs.value(), 1u);
}

TEST(FtlMedia, SubBlockWritesPatchTheMappedFrame)
{
    BackingStore store;
    FtlMedia media(store, ftlCfg(100, 8, 1000), 2);

    media.commitBlock(blk(0), pattern(1));
    std::uint64_t v = 0xdeadbeefcafef00dull;
    media.writeBytes(blk(0) + 8, &v, 8);

    BlockData out;
    media.readBlock(blk(0), out.bytes.data());
    std::uint64_t back = 0;
    std::memcpy(&back, out.bytes.data() + 8, 8);
    EXPECT_EQ(back, v);
    EXPECT_EQ(out.bytes[0], 1); // rest of the block intact
    // Still frame-resident: nothing reached the logical image yet.
    EXPECT_EQ(store.read64(blk(0) + 8), 0u);
}

TEST(FtlMedia, CrashMountFlattensTheMappingIntoTheLogicalImage)
{
    BackingStore store;
    FtlMedia media(store, ftlCfg(100, 8, 1000), 2);

    media.commitBlock(blk(0), pattern(1));
    media.commitBlock(blk(1), pattern(2));
    media.commitBlock(blk(0), pattern(3)); // remapped rewrite
    std::uint64_t v = 0x4444444444444444ull;
    media.writeBytes(blk(1) + 8, &v, 8);

    media.onCrashComplete();
    EXPECT_EQ(store.read64(blk(0)), 0x0303030303030303ull);
    EXPECT_EQ(store.read64(blk(1)), 0x0202020202020202ull);
    EXPECT_EQ(store.read64(blk(1) + 8), v);
}

TEST(FtlMedia, StaticWearLevelingMigratesColdBlocksOntoWornFrames)
{
    BackingStore store;
    // Check wear-leveling on every commit; migrate at a 2-program gap.
    FtlMedia media(store, ftlCfg(1000, 2, 1), 1);
    CountingTiming timing;
    media.attachTiming(&timing);

    media.commitBlock(blk(0), pattern(0xc0)); // cold block, wear 1
    for (unsigned i = 0; i < 40; ++i)
        media.commitBlock(blk(1), pattern(static_cast<unsigned char>(i)));

    EXPECT_GT(media.stats().migrations.value(), 0u);
    // The cold block was swapped onto a worn frame, keeping its content.
    // (Judge by wear, not frame identity: a later migration may recycle
    // the original frame id back to it once that frame has worn.)
    EXPECT_GT(media.frameWear(media.frameOf(blk(0))), 1u);
    BlockData out;
    media.readBlock(blk(0), out.bytes.data());
    EXPECT_EQ(out.bytes[0], 0xc0);
    // Background migrations reserved channel bandwidth: one read + one
    // write occupancy per migration, through the attached timing.
    EXPECT_GT(timing.calls, 0u);
    EXPECT_EQ(timing.last_busy,
              timing.mediaReadOccupancy() + timing.mediaWriteOccupancy());
    // Migration programs are the write amplification: more programs than
    // demand commits.
    EXPECT_GT(media.stats().programs.value(),
              media.stats().demand_programs.value());
}

TEST(FtlMedia, WornFramesRetireGracefully)
{
    BackingStore store;
    // Endurance 2, wear-leveling off: frames retire after two programs.
    FtlMedia media(store, ftlCfg(2, 100, 1000), 1);

    std::vector<std::uint64_t> frames;
    for (unsigned i = 0; i < 32; ++i) {
        media.commitBlock(blk(0), pattern(static_cast<unsigned char>(i)));
        frames.push_back(media.frameOf(blk(0)));
    }

    // Each out-of-place commit released the previous frame; the ones
    // that reached the endurance limit left service for good and never
    // came back into use.
    std::uint64_t retired = media.stats().retired_frames.value();
    EXPECT_GT(retired, 0u);
    std::set<std::uint64_t> worn;
    for (std::uint64_t f : frames) {
        if (f != media.frameOf(blk(0)) && media.frameWear(f) >= 2)
            worn.insert(f);
    }
    EXPECT_EQ(worn.size(), retired);
    EXPECT_EQ(media.freeFrames(0) + retired + media.mappedBlocks(),
              media.stats().frames_minted.value());
    // Graceful: no write was lost — the block still reads back its
    // latest value.
    BlockData out;
    media.readBlock(blk(0), out.bytes.data());
    EXPECT_EQ(out.bytes[0], 31);
}

TEST(FtlMedia, IdenticalCommitStreamsProduceIdenticalMappings)
{
    // The determinism contract: no RNG, and no decision reads a
    // container's iteration order — two instances fed the same stream
    // agree frame for frame.
    BackingStore store_a, store_b;
    FtlMedia a(store_a, ftlCfg(4, 2, 4), 2);
    FtlMedia b(store_b, ftlCfg(4, 2, 4), 2);

    for (unsigned round = 0; round < 16; ++round) {
        for (unsigned i = 0; i < 8; ++i) {
            auto v = static_cast<unsigned char>(round * 8 + i);
            a.commitBlock(blk(i), pattern(v));
            b.commitBlock(blk(i), pattern(v));
        }
    }
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(a.frameOf(blk(i)), b.frameOf(blk(i))) << "block " << i;
    EXPECT_EQ(a.stats().programs.value(), b.stats().programs.value());
    EXPECT_EQ(a.stats().migrations.value(), b.stats().migrations.value());
    EXPECT_EQ(a.stats().retired_frames.value(),
              b.stats().retired_frames.value());
    EXPECT_EQ(a.stats().frames_minted.value(),
              b.stats().frames_minted.value());
}

/** Everything observable about the FTL's state after one operation. */
void
expectSameState(const FtlMedia &ftl, const RefFtl &ref, unsigned channels,
                unsigned blocks, unsigned migrations_reserved,
                const char *step)
{
    SCOPED_TRACE(step);
    for (unsigned i = 0; i < blocks; ++i)
        ASSERT_EQ(ftl.frameOf(blk(i)), ref.frameOf(blk(i))) << "block " << i;
    for (std::uint64_t f = 0; f < ftl.stats().frames_minted.value() + 8; ++f)
        ASSERT_EQ(ftl.frameWear(f), ref.frameWear(f)) << "frame " << f;
    for (unsigned ch = 0; ch < channels; ++ch)
        ASSERT_EQ(ftl.freeFrames(ch), ref.freeFrames(ch)) << "channel " << ch;
    ASSERT_EQ(ftl.mappedBlocks(), ref.mappedBlocks());
    const MediaStats &s = ftl.stats();
    ASSERT_EQ(s.programs.value(), ref.programs);
    ASSERT_EQ(s.program_bytes.value(), ref.programs * kBlockSize);
    ASSERT_EQ(s.demand_programs.value(), ref.demand_programs);
    ASSERT_EQ(s.torn_programs.value(), ref.torn_programs);
    ASSERT_EQ(s.byte_writes.value(), ref.byte_writes);
    ASSERT_EQ(s.migrations.value(), ref.migrations);
    ASSERT_EQ(s.retired_frames.value(), ref.retired_frames);
    ASSERT_EQ(s.frames_minted.value(), ref.frames_minted);
    ASSERT_EQ(s.wear.samples(), ref.programs);
    ASSERT_EQ(migrations_reserved, ref.migrations);
}

TEST(FtlMedia, FlatTablesMakeTheReferenceModelsChoices)
{
    constexpr unsigned kBlocks = 40;
    std::uint64_t retired = 0, migrated = 0;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937_64 rng(seed);
        auto pick = [&](std::uint64_t lo, std::uint64_t hi) {
            return std::uniform_int_distribution<std::uint64_t>(lo, hi)(rng);
        };
        unsigned channels = static_cast<unsigned>(pick(1, 4));
        MediaModelConfig cfg = ftlCfg(pick(4, 6), 2,
                                      static_cast<unsigned>(pick(4, 8)));

        // Both start from the same warm-up image: unmapped blocks read
        // through to it.
        BackingStore store, ref_store;
        for (unsigned i = 0; i < kBlocks; i += 3) {
            store.writeBlock(blk(i), pattern(static_cast<unsigned char>(i))
                                         .bytes.data());
            ref_store.writeBlock(
                blk(i), pattern(static_cast<unsigned char>(i)).bytes.data());
        }
        FtlMedia ftl(store, cfg, channels);
        CountingTiming timing;
        ftl.attachTiming(&timing);
        RefFtl ref(ref_store, cfg, channels);

        for (unsigned op = 0; op < 1500; ++op) {
            // Skewed blocks: a hot few get most commits, so cold blocks
            // pin frames and static wear leveling has work to do.
            Addr block = blk(static_cast<unsigned>(
                pick(0, 3) ? pick(0, 7) : pick(0, kBlocks - 1)));
            BlockData data;
            for (auto &b : data.bytes)
                b = static_cast<unsigned char>(rng());
            unsigned kind = static_cast<unsigned>(pick(0, 9));
            const char *step;
            if (kind < 5) {
                step = "commitBlock";
                ftl.commitBlock(block, data);
                ref.commitBlock(block, data);
            } else if (kind < 7) {
                step = "commitTorn";
                unsigned torn = static_cast<unsigned>(pick(0, kBlockSize));
                ftl.commitTorn(block, data, torn);
                ref.commitTorn(block, data, torn);
            } else if (kind < 9) {
                step = "readBlock";
                BlockData a, b;
                ftl.readBlock(block, a.bytes.data());
                ref.readBlock(block, b.bytes.data());
                ASSERT_EQ(a.bytes, b.bytes) << "op " << op;
            } else {
                step = "writeBytes";
                Addr addr = block + pick(0, kBlockSize - 1);
                std::size_t size = pick(1, kBlockSize);
                ftl.writeBytes(addr, data.bytes.data(), size);
                ref.writeBytes(addr, data.bytes.data(), size);
            }
            expectSameState(ftl, ref, channels, kBlocks, timing.calls, step);
            if (::testing::Test::HasFatalFailure())
                return;
        }

        ftl.onCrashComplete();
        ref.onCrashComplete();
        for (unsigned i = 0; i <= kBlocks; ++i) {
            BlockData a, b;
            store.readBlock(blk(i), a.bytes.data());
            ref_store.readBlock(blk(i), b.bytes.data());
            ASSERT_EQ(a.bytes, b.bytes) << "flattened block " << i;
        }
        EXPECT_EQ(store.fingerprint(), ref_store.fingerprint());
        retired += ref.retired_frames;
        migrated += ref.migrations;
    }
    // The streams must reach both rare paths, or the check proves little.
    EXPECT_GT(retired, 0u);
    EXPECT_GT(migrated, 0u);
}
