/**
 * @file
 * FtlMedia: an FTL-style NVMM endurance model behind the media seam.
 *
 * The shape follows a real SSD flash-translation layer's page-mapping
 * table (the pmt), scaled to the simulator's 64 B block granularity:
 * logical block → physical frame. Every demand commit programs a *new*
 * frame (out-of-place write); the old frame returns to its channel's
 * free pool. The mapping is always memory-resident, so there is no
 * translation cache to model.
 *
 * The only caller of the write methods is the owning MemCtrl: whether a
 * program fails or tears is decided above the seam, and the FTL knows
 * nothing of faults.
 *
 * Endurance model:
 *
 *  - Every physical frame carries a wear counter, bumped per program
 *    and sampled into the `media.wear` histogram.
 *  - **Dynamic wear leveling**: demand allocations take the *least*
 *    worn free frame of the block's channel.
 *  - **Static wear leveling**: every `wl_interval` demand programs the
 *    committing channel is checked — if its most-worn free frame leads
 *    its coldest mapped frame by `wear_delta` programs, the cold block
 *    migrates onto the worn frame (cold data pins hot frames; the cold
 *    frame's low wear rejoins the free pool). The migration reserves
 *    one read + one write occupancy on the channel through the
 *    attached MediaTiming, so background traffic contends with demand
 *    writes in the timing model.
 *  - **Retirement**: a frame released with wear ≥ `endurance_cycles`
 *    never re-enters service; it is counted in `media.retired_frames`.
 *    Retirement is graceful (the data moved out of place first), so it
 *    damages nothing the recovery oracle must explain.
 *
 * Channel preservation: physical frames are minted per channel with
 * `frame % channels == channel`, and a logical block only ever maps to
 * frames of `mediaChannelOf(block)`'s pool. A remap therefore never
 * moves a block's traffic to another channel, and the controller's
 * interleaving math stays valid (tests/test_channel_interleave.cpp).
 *
 * Determinism: no RNG at all. Every decision reads ordered containers
 * (std::map / std::set keyed by (wear, frame)), so reports are
 * byte-identical at any --jobs width by construction.
 *
 * Crash contract: frames hold the device truth during a run; at
 * onCrashComplete() — the reboot "mount" — the reconstructed mapping is
 * replayed into the logical BackingStore in address order, so
 * RecoveryManager's raw post-crash image walk reads every block
 * through the remap table.
 */

#ifndef BBB_MEM_FTL_FTL_MEDIA_HH
#define BBB_MEM_FTL_FTL_MEDIA_HH

#include <cstddef>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "mem/media_backend.hh"

namespace bbb
{

class FtlMedia : public MediaBackend
{
  public:
    /**
     * @p logical is the system's backing store: the *logical* image.
     * Blocks never programmed through the FTL (warm-up functional
     * writes) read through to it; mapped blocks live in private
     * physical frames until the crash-time flatten.
     */
    FtlMedia(BackingStore &logical, const MediaModelConfig &cfg,
             unsigned channels);

    MediaKind kind() const override { return MediaKind::Ftl; }

    void commitBlock(Addr block, const BlockData &data) override;
    void commitTorn(Addr block, const BlockData &intended,
                    unsigned torn_bytes) override;
    void readBlock(Addr block, unsigned char *out) override;
    void writeBytes(Addr addr, const void *src, std::size_t size) override;

    void onCrashComplete() override;

    void addDerivedMetrics(MetricSnapshot &m,
                           double exec_seconds) const override;

    /** Physical frame currently mapped for @p block; kNoFrame if none. */
    std::uint64_t frameOf(Addr block) const;

    /** Mapped logical blocks (pmt size). */
    std::size_t mappedBlocks() const { return _pmt.size(); }

    /** Free frames currently in @p channel's pool. */
    std::size_t freeFrames(unsigned channel) const;

    /** Current wear of @p frame (0 for never-minted ids). */
    std::uint64_t frameWear(std::uint64_t frame) const;

    static constexpr std::uint64_t kNoFrame = ~0ull;

  private:
    struct Frame
    {
        Addr logical = kNoFrame; ///< mapped logical block, or kNoFrame
        std::uint64_t wear = 0;  ///< programs endured
        bool minted = false;     ///< ever brought into service
        bool retired = false;    ///< out of service for good
        BlockData data{};        ///< physical content
    };

    /** (wear, frame) ordered pool: begin() coldest, rbegin() hottest. */
    using Pool = std::set<std::pair<std::uint64_t, std::uint64_t>>;

    unsigned channelOf(Addr block) const
    {
        return mediaChannelOf(block, _channels);
    }

    /** Least-worn free frame of @p channel, minting a batch if dry. */
    std::uint64_t allocFrame(unsigned channel);

    /** Program @p data onto @p frame: wear, stats, content. */
    void program(std::uint64_t frame, const BlockData &data);

    /** Map @p block onto @p frame (pmt + mapped pool + frame ledger). */
    void mapBlock(Addr block, std::uint64_t frame);

    /** Unmap and free-or-retire the frame currently holding @p block. */
    void releaseMapping(Addr block);

    /** Return an unmapped @p frame to service, or retire it. */
    void freeOrRetire(std::uint64_t frame);

    /** Static wear-leveling check for @p channel (cold → hot frame). */
    void maybeWearLevel(unsigned channel);

    BackingStore &_logical;
    MediaModelConfig _cfg;
    unsigned _channels;

    std::vector<Frame> _frames;            ///< frame ledger, by frame id
    std::map<Addr, std::uint64_t> _pmt;    ///< logical block → frame
    std::vector<Pool> _free;               ///< per-channel free frames
    std::vector<Pool> _mapped;             ///< per-channel mapped frames
    std::vector<std::uint64_t> _minted;    ///< per-channel mint counts
    unsigned _since_wl = 0;                ///< demand programs since WL check
};

} // namespace bbb

#endif // BBB_MEM_FTL_FTL_MEDIA_HH
