/**
 * @file
 * Workload framework: the Table IV evaluation workloads.
 *
 * Each workload pre-builds its persistent data structures functionally
 * (warm-up, like the paper's 200M-instruction warm-up window), then runs
 * one software thread per core performing back-to-back persistent
 * operations — the paper's worst-case persist pressure design.
 *
 * After a crash, each workload reads the image through exactly one
 * structural walk from the persistent roots (walk()). The walk is
 * read-only: it reports to an ImageWalk, link by link, every object it
 * keeps and every damaged link it cuts, together with the write that
 * unlinks the damage. The three post-crash consumers are base-class code
 * over that one walk:
 *
 *  - checkRecovery() counts what the walk reports (plus the image's
 *    out-of-range reads);
 *  - recover() performs each cut's repair write in place, so a torn
 *    tail is unlinked rather than aborting recovery;
 *  - collectKeys() records the keys the walk keeps, for the lifetime
 *    campaign's durable-linearizability oracle (see src/recover/).
 *
 * Because they share one soundness predicate, an image passes
 * checkRecovery() exactly when recover() would repair nothing. And
 * because the walk only reads, two walks over the same bytes report the
 * same: checkRecovery() collects the keys in the walk that counts, and
 * recover() returns the count of its own walk, which is the image's
 * checkRecovery() whenever the walk wrote nothing.
 * install()/resume() bind the measured loop to a fresh or reseeded
 * System.
 */

#ifndef BBB_WORKLOADS_WORKLOAD_HH
#define BBB_WORKLOADS_WORKLOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "api/system.hh"
#include "persist/recovery.hh"
#include "workloads/accessor.hh"

namespace bbb
{

class RecoveryCtx;

/**
 * What a workload's structural walk reports (see Workload::walk). The
 * walk only reads; a consumer may act on a report (recover() performs
 * each cut's write at once), so a walk never rereads a slot it has cut
 * or normalized. The default bodies ignore a report, so each consumer
 * overrides only what it needs.
 */
class ImageWalk
{
  public:
    /** Why a link was cut. */
    enum class Damage
    {
        /** The link reaches an object whose contents did not persist. */
        Torn,
        /** The link points outside the heap, back into the structure,
         *  or at an object the structure cannot use. */
        Dangling,
    };

    virtual ~ImageWalk() = default;

    /** keep(obj, bytes, items): the object [obj, obj + bytes) is sound
     *  and holds `items` elements the walk reports no key for. */
    virtual void keep(Addr, std::uint64_t, std::uint64_t) {}

    /** key(tid, key): one sound element of thread tid's structure. */
    virtual void key(unsigned, std::uint64_t) {}

    /** cut(slot, value, dropped, why): damage; writing value to slot
     *  unlinks it and drops `dropped` elements. */
    virtual void cut(Addr, std::uint64_t, std::uint64_t, Damage) {}

    /** normalize(slot, value): a rebalancing hint a crash may leave
     *  stale; writing value to slot reconciles it. Not damage. */
    virtual void normalize(Addr, std::uint64_t) {}

    /** lost(tid, slot, dropped): thread tid's root object, linked from
     *  slot, is gone with `dropped` elements. Recovery rebuilds it
     *  empty (Workload::rebuildRoot). */
    virtual void lost(unsigned, Addr, std::uint64_t) {}
};

/** Size/shape knobs shared by all workloads. */
struct WorkloadParams
{
    /** Operations performed by each thread in the measured window. */
    std::uint64_t ops_per_thread = 2000;
    /** Structure size pre-built per thread before measurement. */
    std::uint64_t initial_elements = 20000;
    /** Array length for the mutate/swap workloads (paper: 1M). */
    std::uint64_t array_elements = 1ull << 20;
    /** Base RNG seed. */
    std::uint64_t seed = 42;
    /**
     * Core range this workload occupies: [thread_offset,
     * thread_offset + thread_count). thread_count == 0 means "all cores
     * from the offset". Ranged workloads let heterogeneous mixes share
     * one machine (each uses its own root slots and heap arenas).
     */
    unsigned thread_offset = 0;
    unsigned thread_count = 0;

    bool operator==(const WorkloadParams &) const = default;
};

/** Base class for all workloads. */
class Workload
{
  public:
    explicit Workload(const WorkloadParams &p) : _p(p) {}
    virtual ~Workload() = default;

    /** The name makeWorkload() made this workload under. */
    const char *name() const { return _name; }

    /** Functional pre-build: roots, initial structure (media writes). */
    virtual void prepare(System &sys) = 0;

    /** The measured per-thread loop (runs on a core fiber). */
    virtual void runThread(ThreadContext &tc, unsigned tid) = 0;

    /**
     * The one structural walk of a post-crash image: from each bound
     * thread's root, keep every sound object and cut each damaged link
     * so that the sound prefix survives. Reads only; never asserts on
     * image contents.
     */
    virtual void walk(ImageWalk &w, const PmemImage &img) const = 0;

    /**
     * Whether collectKeys() is a lossless key oracle: every key an
     * operation acknowledged stays reachable across a crash. False for
     * the arrays (no keys) and for trees whose restructuring can shed
     * acknowledged keys at a crash.
     */
    virtual bool keyed() const { return false; }

    /**
     * Count what walk() reports, plus the image's out-of-range reads.
     * With @p keys, the same walk also fills *keys as collectKeys()
     * would (left empty per thread unless keyed()).
     */
    RecoveryResult
    checkRecovery(const PmemImage &img,
                  std::vector<std::vector<std::uint64_t>> *keys =
                      nullptr) const;

    /**
     * Repair a damaged post-crash image in place: walk() it and perform
     * each cut's repair write, rebuild lost roots, and note every kept
     * object so the resumed allocator never overwrites it. Returns the
     * count of the walk's reports: the image's checkRecovery() whenever
     * the walk wrote nothing.
     */
    RecoveryResult recover(RecoveryCtx &ctx) const;

    /**
     * Every bound thread's kept keys, indexed by thread, in walk order.
     * Returns false, collecting nothing, unless keyed().
     */
    bool collectKeys(const PmemImage &img,
                     std::vector<std::vector<std::uint64_t>> &out) const;

    /**
     * prepare() + bind runThread to this workload's core range. A core
     * that is already bound fails before the prebuild writes into its
     * arena.
     */
    void
    install(System &sys)
    {
        beginLife(sys);
        for (CoreId c = _first; c < _end; ++c)
            BBB_ASSERT(!sys.core(c).hasThread(), "core %u already has a thread",
                       c);
        prepare(sys);
        bindThreads(sys);
    }

    /**
     * install() with every arena prebuilt word by word through an
     * ImageAccessor: the reference that prepare()'s flat ArenaImage
     * windows must reproduce byte for byte.
     */
    void
    installWordByWord(System &sys)
    {
        _word_by_word = true;
        install(sys);
        _word_by_word = false;
    }

    /**
     * Bind the measured loop to a reseeded machine without re-preparing:
     * the next life of a crash–recover–resume lifetime. The caller has
     * already seeded the image (System::seedImage) and restored the heap
     * frontiers from recovery.
     */
    void
    resume(System &sys)
    {
        beginLife(sys);
        bindThreads(sys);
    }

    const WorkloadParams &params() const { return _p; }

    /** First core of this workload's range. */
    unsigned firstThread() const { return _p.thread_offset; }

    /** One past the last core of this workload's range. */
    unsigned
    endThread(const System &sys) const
    {
        BBB_ASSERT(_p.thread_offset < sys.numCores(),
                   "workload thread range starts at core %u but the "
                   "system has %u cores",
                   _p.thread_offset, sys.numCores());
        unsigned count = _p.thread_count
                             ? _p.thread_count
                             : sys.numCores() - _p.thread_offset;
        BBB_ASSERT(_p.thread_offset + count <= sys.numCores(),
                   "workload thread range [%u, %u) exceeds %u cores",
                   _p.thread_offset, _p.thread_offset + count,
                   sys.numCores());
        return _p.thread_offset + count;
    }

    /** Thread range bound by the last install()/resume(). */
    unsigned boundFirst() const { return _first; }
    unsigned boundEnd() const { return _end; }

    /**
     * Keys logged by runThread in this life, in program (issue) order.
     * With TSO's in-order store-buffer drain, the keys that survive a
     * crash under a safe mode are exactly a prefix of this sequence —
     * the campaign's persist-order oracle.
     */
    const std::vector<std::uint64_t> &
    issuedKeys(unsigned tid) const
    {
        return _issued.at(tid);
    }

    /** Root slot address for @p slot in any image sharing this map. */
    static Addr
    imageRootAddr(const AddrMap &map, unsigned slot)
    {
        return PersistentHeap::rootAddr(map, slot);
    }

  protected:
    /**
     * Rebuild thread @p tid's lost root object empty and return its
     * address (recover() points the root slot at it). Only workloads
     * whose walk reports ImageWalk::lost() override this.
     */
    virtual Addr rebuildRoot(RecoveryCtx &ctx, unsigned tid) const;

    /**
     * Run @p build(m, t) for each bound thread t: m is one ArenaImage,
     * opened over t's empty heap arena and committed to the image once
     * t's structure is built (an ImageAccessor under installWordByWord()).
     * The prebuild of every pointer-based workload.
     */
    template <class Build>
    void
    forEachArena(System &sys, Build &&build)
    {
        ImageAccessor word_by_word(sys.image());
        ArenaImage flat(sys.image(), sys.heap());
        for (unsigned t = _first; t < _end; ++t) {
            if (_word_by_word) {
                build(static_cast<MemAccessor &>(word_by_word), t);
                continue;
            }
            flat.open(t);
            build(static_cast<MemAccessor &>(flat), t);
            flat.commit();
        }
    }

    /** Record a keyed op at issue time (fiber-side; cores share one
     *  OS thread per System, so no locking is needed). */
    void logOp(unsigned tid, std::uint64_t key)
    {
        _issued.at(tid).push_back(key);
    }

    /** Whether this prepare() runs under installWordByWord(). */
    bool wordByWord() const { return _word_by_word; }

    /** Ops performed across all lives so far: sizes cycle guards so a
     *  resumed structure's legitimate growth never reads as corruption. */
    std::uint64_t lifeOps() const { return _life_ops; }

    WorkloadParams _p;
    System *_sys = nullptr;
    unsigned _first = 0;
    unsigned _end = 0;

  private:
    class Repair;
    friend std::unique_ptr<Workload> makeWorkload(const std::string &,
                                                  const WorkloadParams &);

    void
    beginLife(System &sys)
    {
        _sys = &sys;
        _first = firstThread();
        _end = endThread(sys);
        _life_ops += _p.ops_per_thread;
        _issued.assign(_end, {});
    }

    void
    bindThreads(System &sys)
    {
        for (CoreId c = _first; c < _end; ++c) {
            sys.onThread(c, [this, c](ThreadContext &tc) {
                runThread(tc, c);
            });
        }
    }

    const char *_name = "";
    std::uint64_t _life_ops = 0;
    std::vector<std::vector<std::uint64_t>> _issued;
    bool _word_by_word = false;
};

/**
 * Every name makeWorkload() accepts: Table IV, the Fig. 2 linked list,
 * then the skip list, spatial R-tree and B-tree of the crash campaigns.
 */
std::vector<std::string> workloadNames();

/** Why makeWorkload() rejects @p name, or "" if it accepts it. */
std::string workloadNameError(const std::string &name);

/** Instantiate a workload by name; fatal() on unknown names. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const WorkloadParams &p);

} // namespace bbb

#endif // BBB_WORKLOADS_WORKLOAD_HH
