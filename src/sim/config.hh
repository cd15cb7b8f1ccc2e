/**
 * @file
 * Central configuration records for the simulated system.
 *
 * Defaults follow Table III of the BBB paper: 8 cores at 2 GHz, private
 * 128 kB 8-way L1D (2 cycles), shared 1 MB 8-way L2/LLC (11 cycles), 8 GB
 * DRAM at 55 ns, 8 GB NVMM at 150 ns read / 500 ns write, and a 32-entry
 * bbPB per core with a 75% drain threshold.
 */

#ifndef BBB_SIM_CONFIG_HH
#define BBB_SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace bbb
{

/**
 * Which persistency scheme the simulated machine implements. These are the
 * schemes contrasted throughout the paper (Table I and Section V).
 */
enum class PersistMode
{
    /**
     * ADR only: the persistence domain is the NVMM controller's WPQ.
     * Persist ordering requires explicit flush + fence (Intel PMEM style).
     * Workload-level writeBack()/persistBarrier() calls are honoured.
     */
    AdrPmem,

    /**
     * ADR only, but the program issues no flushes/fences ("unsafe"). Used
     * to demonstrate lost/torn data after a crash, and as the no-
     * persistency performance reference.
     */
    AdrUnsafe,

    /**
     * eADR: the entire cache hierarchy is battery-backed. No flushes
     * needed; every dirty line drains on failure. The paper's optimal
     * performance/write baseline.
     */
    Eadr,

    /**
     * BBB with memory-side bbPB (the paper's chosen design): coalescing
     * allowed, out-of-order drain, LLC writeback-skip for persistent
     * blocks.
     */
    BbbMemSide,

    /**
     * BBB with processor-side bbPB (design-space comparison, Section V-C):
     * entries are ordered store records, no coalescing across blocks, and
     * every entry drains to NVMM.
     */
    BbbProcSide,
};

/** Printable name of a persistency mode. */
const char *persistModeName(PersistMode m);

/**
 * Parse a persistModeName() token back into its mode. fatal()s on an
 * unknown name — this is the campaign-repro CLI path.
 */
PersistMode persistModeFromName(const std::string &name);

/** Replacement policy selector (definition in cache/replacement.hh). */
enum class ReplPolicy;

/** Geometry/latency of one cache level. */
struct CacheConfig
{
    std::uint64_t size_bytes = 128_KiB;
    unsigned assoc = 8;
    /** Access latency in core cycles. */
    unsigned latency_cycles = 2;
    /** Replacement policy (0 == LRU; see cache/replacement.hh). */
    ReplPolicy repl{};

    bool operator==(const CacheConfig &) const = default;
};

/**
 * Which bbPB entry the drain engine evicts first (Section III-F; the
 * paper ships FCFS and leaves prediction-based policies as future work —
 * we provide two such variants for the ablation study).
 */
enum class DrainPolicy
{
    /** Oldest-allocated entry first (the paper's policy). */
    Fcfs,
    /**
     * Least-recently-written entry first: keeps write-hot blocks
     * buffered for further coalescing (a recency predictor for future
     * writes).
     */
    Lrw,
    /** Uniform random entry (baseline for the ablation). */
    Random,
};

/** Printable drain-policy name. */
const char *drainPolicyName(DrainPolicy p);

/** Parse a drainPolicyName() token; fatal()s on an unknown name. */
DrainPolicy drainPolicyFromName(const std::string &name);

/** Which media model serves the NVMM controller (mem/media_backend.hh). */
enum class MediaKind
{
    /** Pass-through to the backing store (the historical device). */
    Direct,
    /** FTL-style endurance model: wear, remap, migration (mem/ftl/). */
    Ftl,
};

/** Printable media-kind name ("direct" / "ftl"). */
const char *mediaKindName(MediaKind k);

/** Parse a mediaKindName() token; fatal()s on an unknown name. */
MediaKind mediaKindFromName(const std::string &name);

/**
 * The NVMM media model behind the controller. Only `kind` changes what
 * the machine does; the remaining knobs shape the FTL's endurance
 * model and its lifetime projection (media.* metrics).
 */
struct MediaModelConfig
{
    MediaKind kind = MediaKind::Direct;

    /** Programs a physical frame endures before it must be retired. */
    std::uint64_t endurance_cycles = 100000;

    /**
     * Static wear-leveling trigger: migrate the coldest mapped frame
     * once the global max wear exceeds its wear by this many programs.
     */
    unsigned wear_delta = 8;

    /** Demand programs between background wear-leveling checks. */
    unsigned wl_interval = 32;

    /** Rated drive-writes-per-day, for the lifetime projection. */
    double dwpd_rating = 1.0;

    bool operator==(const MediaModelConfig &) const = default;
};

/** bbPB geometry and drain policy (Section III-F). */
struct BbpbConfig
{
    /** Number of block entries per core (paper default 32). */
    unsigned entries = 32;
    /** Start draining when occupancy reaches this fraction. */
    double drain_threshold = 0.75;
    /** Drain victim selection. */
    DrainPolicy drain_policy = DrainPolicy::Fcfs;
    /**
     * Latency of moving one block from bbPB to the NVMM WPQ, in core
     * cycles; approximately the L1-to-MC path.
     */
    unsigned drain_latency_cycles = 40;
    /**
     * Cycles between successive drain initiations: drains pipeline on the
     * path to the memory controller, so the sustained drain rate is set
     * by this injection interval, not by the end-to-end latency.
     */
    unsigned drain_issue_cycles = 4;
    /** Retry interval when a persisting store finds the bbPB full. */
    unsigned retry_cycles = 8;
    /**
     * Processor-side organisation only: permit the paper's "special
     * case" of coalescing two subsequent stores to the same block. Off by
     * default — the paper's processor-side results ("almost every
     * persisting store must ... drain to the NVMM") reflect
     * store-granularity records.
     */
    bool proc_pairwise_coalescing = false;

    bool operator==(const BbpbConfig &) const = default;
};

/** Memory timing (per kind). */
struct MemConfig
{
    std::uint64_t size_bytes = 8_GiB;
    /** End-to-end access latencies (Table III). */
    Tick read_latency = nsToTicks(55);
    Tick write_latency = nsToTicks(55);
    /**
     * Channel occupancy per 64 B block: the bandwidth component. Accesses
     * pipeline, so a channel is busy for the occupancy, not the latency
     * (e.g. Optane writes: ~2.3 GB/s per channel => ~28 ns per block
     * despite a ~500 ns write latency).
     */
    Tick read_occupancy = nsToTicks(5);
    Tick write_occupancy = nsToTicks(5);
    /** Parallel channels: blocks interleave across them. */
    unsigned channels = 4;
    /** WPQ entries (NVMM controller only; ADR domain). */
    unsigned wpq_entries = 64;

    bool operator==(const MemConfig &) const = default;
};

/** Store buffer geometry. */
struct StoreBufferConfig
{
    unsigned entries = 32;
    /** Cycles between successive drains from SB head to L1D. */
    unsigned drain_interval_cycles = 1;

    bool operator==(const StoreBufferConfig &) const = default;
};

/** Top-level system configuration. */
struct SystemConfig
{
    unsigned num_cores = 8;
    /** Core clock in MHz (2 GHz default). */
    std::uint64_t clock_mhz = 2000;

    CacheConfig l1d{128_KiB, 8, 2};
    CacheConfig llc{1_MiB, 8, 11};

    StoreBufferConfig store_buffer{};
    BbpbConfig bbpb{};

    MemConfig dram{8_GiB, nsToTicks(55), nsToTicks(55), nsToTicks(5),
                   nsToTicks(5), 4, 0};
    MemConfig nvmm{8_GiB, nsToTicks(150), nsToTicks(500), nsToTicks(10),
                   nsToTicks(28), 4, 64};

    /** NVMM media model (DirectMedia pass-through by default). */
    MediaModelConfig media{};

    PersistMode mode = PersistMode::BbbMemSide;

    /**
     * Relaxed memory consistency: stores may write the L1D out of program
     * order, so BBB also battery-backs the store buffer (Section III-C).
     * When false (TSO/SC), the bbPB alone defines the PoP.
     */
    bool relaxed_consistency = true;

    /**
     * Whether the store buffer is battery-backed (drained at crash).
     * Defaults to true; setting it false on a relaxed-consistency machine
     * reproduces the Section III-C hazard — a younger store persists via
     * the bbPB while an older one dies in the volatile store buffer.
     */
    bool sb_battery_backed = true;

    /**
     * When true and mode == AdrPmem, every persisting store is followed
     * automatically by clwb + sfence: the strict-persistency-on-PMEM
     * baseline of Section II. When false, only workload-annotated
     * writeBack()/persistBarrier() calls are executed (epoch style).
     */
    bool pmem_auto_strict = false;

    /**
     * Debug: validate the hierarchy/backend structural invariants (LLC
     * inclusion, directory consistency, single-writer, bbPB dirty
     * inclusion) on a sampled schedule during run() and once more at
     * crash time. Off by default — each check walks every cache array.
     */
    bool check_invariants = false;
    /** Core cycles between sampled invariant checks when enabled. */
    std::uint64_t invariant_check_cycles = 20000;

    /** RNG seed shared by workloads and timing jitter. */
    std::uint64_t seed = 1;

    /**
     * Member-wise equality: two equal configs build the same machine, so
     * the experiment pool simulates an equal spec only once.
     */
    bool operator==(const SystemConfig &) const = default;

    /** Ticks (picoseconds) per core cycle: 1 MHz has a 1e6 ps period. */
    Tick
    cyclePeriod() const
    {
        Tick period = 1000000ull / clock_mhz;
        return period ? period : 1;
    }

    /** Convert core cycles to ticks. */
    Tick
    cycles(std::uint64_t n) const
    {
        return n * cyclePeriod();
    }

    /** True if the mode uses a bbPB. */
    bool
    usesBbpb() const
    {
        return mode == PersistMode::BbbMemSide ||
               mode == PersistMode::BbbProcSide;
    }

    /**
     * Events attributable to one simulated core: its driver/resume
     * events plus in-flight store-buffer drains.
     */
    std::size_t
    perCoreEventHint() const
    {
        return 8 + store_buffer.entries;
    }

    /**
     * Overhead of the shared components (WPQ/channel completions,
     * invariant sampler, slack), counted once per machine.
     */
    std::size_t
    sharedEventHint() const
    {
        return nvmm.wpq_entries + nvmm.channels + dram.channels + 64;
    }

    /**
     * Upper bound on simultaneously-pending events, for pre-sizing the
     * EventQueue heap so it never reallocates mid-run: every core plus
     * the shared components. Deliberately generous — a few unused slots
     * cost bytes, a mid-run reallocation costs a heap copy on the hot
     * path.
     */
    std::size_t
    eventCapacityHint() const
    {
        return num_cores * perCoreEventHint() + sharedEventHint();
    }
};

} // namespace bbb

#endif // BBB_SIM_CONFIG_HH
