/**
 * @file
 * Workload framework: the Table IV evaluation workloads.
 *
 * Each workload pre-builds its persistent data structures functionally
 * (warm-up, like the paper's 200M-instruction warm-up window), then runs
 * one software thread per core performing back-to-back persistent
 * operations — the paper's worst-case persist pressure design. After a
 * simulated crash, checkRecovery() walks the post-crash image from the
 * persistent roots and classifies reachable objects as intact or torn.
 *
 * Crash–recover–resume: recover() repairs a damaged post-crash image in
 * place (unlinking torn tails rather than aborting), install()/resume()
 * bind the measured loop to a fresh or reseeded System, and the issued-key
 * log plus collectKeys() feed the lifetime campaign's durable-
 * linearizability oracle (see src/recover/).
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
};

/** Base class for all workloads. */
class Workload
{
  public:
    explicit Workload(const WorkloadParams &p) : _p(p) {}
    virtual ~Workload() = default;

    virtual const char *name() const = 0;

    /** Functional pre-build: roots, initial structure (media writes). */
    virtual void prepare(System &sys) = 0;

    /** The measured per-thread loop (runs on a core fiber). */
    virtual void runThread(ThreadContext &tc, unsigned tid) = 0;

    /** Walk the post-crash image and validate integrity. */
    virtual RecoveryResult checkRecovery(const PmemImage &img) const = 0;

    /**
     * Repair a damaged post-crash image in place: walk from the roots,
     * keep every structurally sound prefix, and unlink torn or dangling
     * tails through the context's repair writes. Must never assert on
     * image contents — unrepairable damage is reported through
     * RecoveryCtx::markUnrecoverable().
     */
    virtual void recover(RecoveryCtx &ctx) = 0;

    /**
     * Collect thread @p tid's reachable keys from the image, in walk
     * order. Returns false when the workload has no lossless key oracle
     * (arrays; trees whose rebalancing can shed acked keys at a crash).
     */
    virtual bool
    collectKeys(const PmemImage &img, unsigned tid,
                std::vector<std::uint64_t> &out) const
    {
        (void)img;
        (void)tid;
        (void)out;
        return false;
    }

    /** checkRecovery() plus the image's out-of-range read tally. */
    RecoveryResult
    verifyImage(const PmemImage &img) const
    {
        std::uint64_t before = img.oobReads();
        RecoveryResult res = checkRecovery(img);
        res.oob += img.oobReads() - before;
        return res;
    }

    /** prepare() + bind runThread to this workload's core range. */
    void
    install(System &sys)
    {
        beginLife(sys);
        prepare(sys);
        bindThreads(sys);
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
    /** Record a keyed op at issue time (fiber-side; cores share one
     *  OS thread per System, so no locking is needed). */
    void logOp(unsigned tid, std::uint64_t key)
    {
        _issued.at(tid).push_back(key);
    }

    /** Ops performed across all lives so far: sizes cycle guards so a
     *  resumed structure's legitimate growth never reads as corruption. */
    std::uint64_t lifeOps() const { return _life_ops; }

    WorkloadParams _p;
    System *_sys = nullptr;
    unsigned _first = 0;
    unsigned _end = 0;

  private:
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

    std::uint64_t _life_ops = 0;
    std::vector<std::vector<std::uint64_t>> _issued;
};

/** All registered workload names (Table IV + the Fig. 2 linked list). */
std::vector<std::string> workloadNames();

/** Instantiate a workload by name; fatal() on unknown names. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const WorkloadParams &p);

} // namespace bbb

#endif // BBB_WORKLOADS_WORKLOAD_HH
