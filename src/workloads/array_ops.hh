/**
 * @file
 * Table IV array workloads: `mutate[NC/C]` and `swap[NC/C]` over a shared
 * 1M-element persistent array.
 *
 * NC ("non-conflicting"): each thread updates only its own slice of the
 * array. C ("conflicting"): every thread updates random elements across
 * the whole array, producing cross-core coherence traffic and bbPB entry
 * migrations (Fig. 6 paths).
 *
 * Every element is a self-validating 64-bit word: the high half is the
 * payload, the low half is a hash of it. Because 8-byte persists are
 * atomic at block granularity, a crash leaves each element either old or
 * new — both valid — so recovery checks that *every* element still
 * validates, and re-seals one that does not.
 */

#ifndef BBB_WORKLOADS_ARRAY_OPS_HH
#define BBB_WORKLOADS_ARRAY_OPS_HH

#include "workloads/workload.hh"

namespace bbb
{

/** Shared persistent array with mutate or swap operations. */
class ArrayWorkload : public Workload
{
  public:
    enum class Op
    {
        Mutate,
        Swap,
    };

    ArrayWorkload(const WorkloadParams &p, Op op, bool conflicting)
        : Workload(p), _op(op), _conflicting(conflicting)
    {
    }

    void prepare(System &sys) override;
    void runThread(ThreadContext &tc, unsigned tid) override;
    void walk(ImageWalk &w, const PmemImage &img) const override;

    /** Pack a payload into a self-validating element. */
    static std::uint64_t
    encode(std::uint32_t payload)
    {
        return (static_cast<std::uint64_t>(payload) << 32) |
               (mix64(payload) & 0xffffffffu);
    }

    /** True if @p word is a validly encoded element. */
    static bool
    validate(std::uint64_t word)
    {
        auto payload = static_cast<std::uint32_t>(word >> 32);
        return (word & 0xffffffffu) == (mix64(payload) & 0xffffffffu);
    }

  protected:
    Addr rebuildRoot(RecoveryCtx &ctx, unsigned tid) const override;

  private:
    Addr elemAddr(std::uint64_t idx) const { return _base + idx * 8; }

    Op _op;
    bool _conflicting;
    Addr _base = 0;
};

} // namespace bbb

#endif // BBB_WORKLOADS_ARRAY_OPS_HH
