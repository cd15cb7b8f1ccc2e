/**
 * @file
 * The media seam: everything below the memory controller.
 *
 * MediaBackend is a layered seam below the memory controller: the
 * controller addresses *logical* blocks, and the backend decides what
 * physically happens — a pass-through (DirectMedia, the historical
 * behaviour, bit for bit) or an FTL-style endurance model with
 * wear-leveling remapping (FtlMedia, mem/ftl/).
 *
 * The seam's contract:
 *
 *  - commitBlock / commitTorn / writeBytes are the only ways block
 *    content reaches media, and the owning MemCtrl is their only caller
 *    (at runtime and for the crash drain). DirectMedia forwards them to
 *    the logical BackingStore unchanged; FtlMedia remaps them to
 *    physical frames, and its own wear-leveling migrations and mount
 *    are the only other media writes.
 *  - The backend knows nothing of faults: whether an attempt fails or
 *    tears, and the ledger of damaged blocks, stay in the controller
 *    and the fault injector above the seam.
 *  - readBlock returns the *logical* content — WPQ
 *    forwarding and torn-content overlays stay in the controller, above
 *    the seam.
 *  - onCrashComplete() runs once, after the crash engine finishes the
 *    flush-on-fail drain (MemCtrl::crashMount()): the reboot's "mount"
 *    step. FtlMedia replays its reconstructed remap table into the
 *    logical image there, so RecoveryManager's raw post-crash walk
 *    reads every block through the mapping (DirectMedia has nothing to
 *    mount).
 *  - Background traffic a backend generates (wear-leveling migrations)
 *    contends with demand writes through the attached MediaTiming —
 *    the controller's own per-channel reserveChannel() — so endurance
 *    maintenance is visible in the timing model, not free.
 *
 * Determinism: a backend may not consult any state outside the
 * simulation (host clocks, unordered containers, global RNGs). Every
 * FtlMedia decision derives from ordered tables keyed by (wear, frame),
 * evaluated in event order, so reports stay byte-identical at
 * any --jobs width.
 */

#ifndef BBB_MEM_MEDIA_BACKEND_HH
#define BBB_MEM_MEDIA_BACKEND_HH

#include <cstddef>

#include "mem/backing_store.hh"
#include "mem/block_data.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace bbb
{

/**
 * Channel a block interleaves to: cache-block-granularity round-robin.
 * The single definition shared by the controller's timing model and the
 * FTL's channel-preserving frame allocator (so a remap never moves a
 * block's traffic to another channel).
 */
inline unsigned
mediaChannelOf(Addr addr, unsigned channels)
{
    return static_cast<unsigned>((addr >> kBlockShift) % channels);
}

/**
 * Timing services a backend borrows from its controller: per-channel
 * bandwidth reservation for the background traffic the backend itself
 * generates. Implemented privately by MemCtrl.
 */
class MediaTiming
{
  public:
    virtual ~MediaTiming() = default;

    /** Reserve @p busy ticks on @p channel; returns the start tick. */
    virtual Tick reserveMediaChannel(unsigned channel, Tick busy) = 0;

    /** Channel occupancy of one block read / one block write. */
    virtual Tick mediaReadOccupancy() const = 0;
    virtual Tick mediaWriteOccupancy() const = 0;
};

/**
 * Media-layer counters, registered under the "media" stat group for the
 * NVMM backend (the DRAM controller's pass-through stays unregistered).
 * Shared by both backends so reports carry the same key set
 * in either mode; the FTL-only counters simply stay zero under
 * DirectMedia.
 */
struct MediaStats
{
    StatCounter programs;        ///< physical block programs (all causes)
    StatCounter demand_programs; ///< programs serving demand/drain commits
    StatCounter program_bytes;   ///< bytes physically programmed
    StatCounter torn_programs;   ///< programs torn by terminal failures
    StatCounter byte_writes;     ///< sub-block crash-time patches
    StatCounter migrations;      ///< wear-leveling background migrations
    StatCounter retired_frames;  ///< frames retired at the endurance limit
    StatCounter frames_minted;   ///< physical frames brought into service
    StatHistogram wear;          ///< frame wear sampled at each program

    MediaStats() : wear(16, 8) {}

    void registerWith(StatGroup &g);

    /**
     * Rebucket the wear histogram (e.g. to span the configured
     * endurance limit). Only legal before any sample lands; the
     * registered pointer stays valid because the member is assigned
     * in place.
     */
    void
    reshapeWear(unsigned buckets, std::uint64_t width)
    {
        BBB_ASSERT(wear.samples() == 0, "reshaping a sampled histogram");
        wear = StatHistogram(buckets, width);
    }
};

/**
 * Everything below the memory controller. One backend instance serves
 * one controller, which is its only writer.
 */
class MediaBackend
{
  public:
    virtual ~MediaBackend() = default;

    virtual MediaKind kind() const = 0;

    /** Commit one full logical block to media. */
    virtual void commitBlock(Addr block, const BlockData &data) = 0;

    /**
     * Terminal media failure: only the first @p torn_bytes of
     * @p intended land; the rest of the block keeps its old content.
     */
    virtual void commitTorn(Addr block, const BlockData &intended,
                            unsigned torn_bytes) = 0;

    /** Current media content of the logical block at @p block. */
    virtual void readBlock(Addr block, unsigned char *out) = 0;

    /** Crash-time sub-block patch (battery-backed store-buffer entry). */
    virtual void writeBytes(Addr addr, const void *src,
                            std::size_t size) = 0;

    /**
     * The reboot "mount": called once through the controller after the
     * flush-on-fail drain finishes. An FTL replays its remap table into
     * the logical image here so recovery reads through the mapping.
     */
    virtual void onCrashComplete() {}

    /** Borrow the owning controller's channel timing (may be null). */
    void attachTiming(MediaTiming *timing) { _timing = timing; }

    /** Register the media.* stat group (NVMM backend only). */
    void
    registerStats(StatRegistry &registry)
    {
        _stats.registerWith(registry.group("media"));
    }

    const MediaStats &stats() const { return _stats; }

    /**
     * Append the derived media.* snapshot leaves: write amplification
     * for every backend, plus the wear/remap/lifetime subtree for the
     * FTL. @p exec_seconds is simulated (not host) time, so the leaves
     * are deterministic.
     */
    virtual void addDerivedMetrics(MetricSnapshot &m,
                                   double exec_seconds) const;

  protected:
    MediaTiming *_timing = nullptr;
    MediaStats _stats;
};

/**
 * The historical device: logical address == physical address, every
 * commit lands in the backing store directly. Byte-identical to the
 * pre-seam controller by construction (same stores, same order, no
 * extra timing).
 */
class DirectMedia : public MediaBackend
{
  public:
    explicit DirectMedia(BackingStore &store) : _store(store) {}

    MediaKind kind() const override { return MediaKind::Direct; }

    void
    commitBlock(Addr block, const BlockData &data) override
    {
        _store.writeBlock(block, data.bytes.data());
        ++_stats.programs;
        ++_stats.demand_programs;
        _stats.program_bytes += kBlockSize;
    }

    void
    commitTorn(Addr block, const BlockData &intended,
               unsigned torn_bytes) override
    {
        _store.write(block, intended.bytes.data(), torn_bytes);
        ++_stats.programs;
        ++_stats.demand_programs;
        ++_stats.torn_programs;
        _stats.program_bytes += torn_bytes;
    }

    void
    readBlock(Addr block, unsigned char *out) override
    {
        _store.readBlock(block, out);
    }

    void
    writeBytes(Addr addr, const void *src, std::size_t size) override
    {
        _store.write(addr, src, size);
        ++_stats.byte_writes;
        _stats.program_bytes += size;
    }

  private:
    BackingStore &_store;
};

} // namespace bbb

#endif // BBB_MEM_MEDIA_BACKEND_HH
