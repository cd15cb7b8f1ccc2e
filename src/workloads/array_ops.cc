#include "workloads/array_ops.hh"

#include "recover/recovery_manager.hh"

namespace bbb
{

const char *
ArrayWorkload::name() const
{
    if (_op == Op::Mutate)
        return _conflicting ? "mutateC" : "mutateNC";
    return _conflicting ? "swapC" : "swapNC";
}

void
ArrayWorkload::prepare(System &sys)
{
    _base = sys.heap().alloc(_first, _p.array_elements * 8, kBlockSize);
    ImageAccessor img(sys.image());
    img.st(sys.heap().rootAddr(_first), _base);
    for (std::uint64_t i = 0; i < _p.array_elements; ++i)
        img.st(elemAddr(i), encode(static_cast<std::uint32_t>(i)));
}

void
ArrayWorkload::runThread(ThreadContext &tc, unsigned tid)
{
    TcAccessor m(tc);
    std::uint64_t n = _p.array_elements;
    std::uint64_t slice = n / (_end - _first);
    std::uint64_t lo = _conflicting ? 0 : (tid - _first) * slice;
    std::uint64_t span = _conflicting ? n : slice;

    for (std::uint64_t i = 0; i < _p.ops_per_thread; ++i) {
        if (_op == Op::Mutate) {
            std::uint64_t idx = lo + tc.rng().below(span);
            std::uint64_t v = m.ld(elemAddr(idx));
            auto payload = static_cast<std::uint32_t>(v >> 32);
            m.st(elemAddr(idx), encode(payload * 2654435761u + 1));
            m.wb(elemAddr(idx));
            m.barrier();
        } else {
            std::uint64_t a = lo + tc.rng().below(span);
            std::uint64_t b = lo + tc.rng().below(span);
            std::uint64_t va = m.ld(elemAddr(a));
            std::uint64_t vb = m.ld(elemAddr(b));
            m.st(elemAddr(a), vb);
            m.wb(elemAddr(a));
            m.barrier();
            m.st(elemAddr(b), va);
            m.wb(elemAddr(b));
            m.barrier();
        }
    }
}

void
ArrayWorkload::walk(ImageWalk &w, const PmemImage &img) const
{
    Addr root = imageRootAddr(img.addrMap(), _first);
    std::uint64_t n = _p.array_elements;
    Addr base = img.read64(root);
    if (base == 0 || !img.validPersistent(base) ||
        !img.validPersistent(base + n * 8 - 1)) {
        w.lost(_first, root, n);
        return;
    }
    std::uint64_t intact = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t word = img.read64(base + i * 8);
        if (validate(word)) {
            ++intact;
            continue;
        }
        // Re-seal the element around whatever payload half survived: a
        // stale-but-valid element, matching the workload's old-or-new
        // atomicity contract.
        w.cut(base + i * 8, encode(static_cast<std::uint32_t>(word >> 32)),
              1, ImageWalk::Damage::Torn);
    }
    w.keep(base, n * 8, intact);
}

Addr
ArrayWorkload::rebuildRoot(RecoveryCtx &ctx, unsigned tid) const
{
    // The base pointer is gone: rebuild the identity array. It was the
    // first allocation in its arena, so this lands at the same address
    // prepare() used.
    std::uint64_t n = _p.array_elements;
    Addr fresh = ctx.alloc(tid, n * 8, kBlockSize);
    for (std::uint64_t i = 0; i < n; ++i)
        ctx.write64(fresh + i * 8, encode(static_cast<std::uint32_t>(i)));
    return fresh;
}

} // namespace bbb
