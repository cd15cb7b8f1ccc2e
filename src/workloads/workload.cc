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

/** checkRecovery(): tally what the walk reports and, given a key list,
 *  collect each thread's kept keys. */
class Count : public ImageWalk
{
  public:
    explicit Count(std::vector<std::vector<std::uint64_t>> *keys = nullptr)
        : _keys(keys)
    {
    }

    void
    keep(Addr, std::uint64_t, std::uint64_t items) override
    {
        res.checked += items;
        res.intact += items;
    }

    void
    key(unsigned tid, std::uint64_t k) override
    {
        ++res.checked;
        ++res.intact;
        if (_keys)
            (*_keys)[tid].push_back(k);
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

  private:
    std::vector<std::vector<std::uint64_t>> *_keys;
};

/** Run @p wl's walk into @p count; add the image's out-of-range reads. */
RecoveryResult
tally(const Workload &wl, Count &count, const PmemImage &img)
{
    std::uint64_t before = img.oobReads();
    wl.walk(count, img);
    count.res.oob = img.oobReads() - before;
    return count.res;
}

} // namespace

/** recover(): perform the walk's repairs through the context, counting
 *  what the walk reports on the way. */
class Workload::Repair : public Count
{
  public:
    Repair(const Workload &wl, RecoveryCtx &ctx) : _wl(wl), _ctx(ctx) {}

    void
    keep(Addr obj, std::uint64_t bytes, std::uint64_t items) override
    {
        Count::keep(obj, bytes, items);
        _ctx.noteObject(obj, bytes);
    }

    void
    cut(Addr slot, std::uint64_t value, std::uint64_t dropped,
        Damage why) override
    {
        Count::cut(slot, value, dropped, why);
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
        Count::lost(tid, slot, dropped);
        _ctx.repair64(slot, _wl.rebuildRoot(_ctx, tid));
        _ctx.noteDropped(dropped);
    }

  private:
    const Workload &_wl;
    RecoveryCtx &_ctx;
};

RecoveryResult
Workload::checkRecovery(const PmemImage &img,
                        std::vector<std::vector<std::uint64_t>> *keys) const
{
    if (keys)
        keys->assign(_end, {});
    Count count(keyed() ? keys : nullptr);
    return tally(*this, count, img);
}

RecoveryResult
Workload::recover(RecoveryCtx &ctx) const
{
    Repair repair(*this, ctx);
    return tally(*this, repair, ctx.image());
}

bool
Workload::collectKeys(const PmemImage &img,
                      std::vector<std::vector<std::uint64_t>> &out) const
{
    if (!keyed()) {
        out.assign(_end, {});
        return false;
    }
    checkRecovery(img, &out);
    return true;
}

Addr
Workload::rebuildRoot(RecoveryCtx &, unsigned tid) const
{
    panic("workload %s lost thread %u's root but cannot rebuild it", name(),
          tid);
}

} // namespace bbb
