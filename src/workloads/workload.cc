/**
 * @file
 * The three consumers of a workload's structural walk: the consistency
 * count, the in-place repair and the key collection.
 */

#include "workloads/workload.hh"

#include "recover/recovery_manager.hh"

namespace bbb
{

namespace
{

/** checkRecovery(): tally what the walk reports. */
class Count : public ImageWalk
{
  public:
    void
    keep(Addr, std::uint64_t, std::uint64_t items) override
    {
        res.checked += items;
        res.intact += items;
    }

    void
    key(unsigned, std::uint64_t) override
    {
        ++res.checked;
        ++res.intact;
    }

    void
    cut(Addr, std::uint64_t, std::uint64_t, Damage why) override
    {
        if (why == Damage::Torn) {
            ++res.checked;
            ++res.torn;
        } else {
            ++res.dangling;
        }
    }

    void lost(unsigned, Addr, std::uint64_t) override { ++res.dangling; }

    RecoveryResult res;
};

/** collectKeys(): each thread's kept keys. */
class Keys : public ImageWalk
{
  public:
    explicit Keys(std::vector<std::vector<std::uint64_t>> &out) : _out(out)
    {
    }

    void
    key(unsigned tid, std::uint64_t k) override
    {
        _out[tid].push_back(k);
    }

  private:
    std::vector<std::vector<std::uint64_t>> &_out;
};

} // namespace

/** recover(): perform the walk's repairs through the context. */
class Workload::Repair : public ImageWalk
{
  public:
    Repair(const Workload &wl, RecoveryCtx &ctx) : _wl(wl), _ctx(ctx) {}

    void
    keep(Addr obj, std::uint64_t bytes, std::uint64_t) override
    {
        _ctx.noteObject(obj, bytes);
    }

    void
    cut(Addr slot, std::uint64_t value, std::uint64_t dropped,
        Damage) override
    {
        _ctx.repair64(slot, value);
        _ctx.noteDropped(dropped);
    }

    void
    normalize(Addr slot, std::uint64_t value) override
    {
        _ctx.normalize64(slot, value);
    }

    void
    lost(unsigned tid, Addr slot, std::uint64_t dropped) override
    {
        _ctx.repair64(slot, _wl.rebuildRoot(_ctx, tid));
        _ctx.noteDropped(dropped);
    }

  private:
    const Workload &_wl;
    RecoveryCtx &_ctx;
};

RecoveryResult
Workload::checkRecovery(const PmemImage &img) const
{
    Count count;
    std::uint64_t before = img.oobReads();
    walk(count, img);
    count.res.oob = img.oobReads() - before;
    return count.res;
}

void
Workload::recover(RecoveryCtx &ctx) const
{
    Repair repair(*this, ctx);
    walk(repair, ctx.image());
}

bool
Workload::collectKeys(const PmemImage &img,
                      std::vector<std::vector<std::uint64_t>> &out) const
{
    out.assign(_end, {});
    if (!keyed())
        return false;
    Keys keys(out);
    walk(keys, img);
    return true;
}

Addr
Workload::rebuildRoot(RecoveryCtx &, unsigned tid) const
{
    panic("workload %s lost thread %u's root but cannot rebuild it", name(),
          tid);
}

} // namespace bbb
