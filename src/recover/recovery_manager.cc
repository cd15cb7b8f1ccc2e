#include "recover/recovery_manager.hh"

#include "api/system.hh"
#include "workloads/workload.hh"

namespace bbb
{

const char *
recoveryStatusName(RecoveryStatus s)
{
    switch (s) {
      case RecoveryStatus::Clean:
        return "clean";
      case RecoveryStatus::DegradedRepaired:
        return "degraded-repaired";
      case RecoveryStatus::Unrecoverable:
        return "unrecoverable";
    }
    return "unknown";
}

RecoverOutcome
RecoveryManager::recover(const Workload &wl)
{
    RecoverOutcome out;
    PersistentHeap geom(_map, _arenas);
    out.frontiers.reserve(_arenas);
    for (unsigned a = 0; a < _arenas; ++a)
        out.frontiers.push_back(geom.arenaBase(a));

    // An image without the heap header never held this machine's data
    // (crash before the first boot persisted anything, or total loss).
    if (_image.read64(geom.magicAddr()) != PersistentHeap::kMagic) {
        out.status = RecoveryStatus::Unrecoverable;
        out.detail = "persistent heap magic missing";
        return out;
    }

    RecoveryCtx ctx(_image, _map, _arenas);
    RecoveryResult walked = wl.recover(ctx);
    out.repairs = ctx.repairs();
    out.normalized = ctx.normalized();
    out.dropped = ctx.dropped();
    out.frontiers = ctx.frontiers();

    // The workload's own consistency walk is the arbiter: a repaired
    // image that still fails it must not be resumed. A recovery that
    // wrote nothing walked exactly these bytes, so its count stands;
    // only a written image is walked again.
    out.verify = out.repairs == 0 && out.normalized == 0
                     ? walked
                     : wl.checkRecovery(PmemImage(_image, _map));
    if (!out.verify.consistent()) {
        out.status = RecoveryStatus::Unrecoverable;
        out.detail = "post-repair image still fails the consistency walk";
        return out;
    }

    out.status = out.repairs ? RecoveryStatus::DegradedRepaired
                             : RecoveryStatus::Clean;
    return out;
}

void
reseedSystem(System &sys, const BackingStore &image,
             const std::vector<Addr> &frontiers)
{
    sys.seedImage(image);
    PersistentHeap &heap = sys.heap();
    BBB_ASSERT(frontiers.size() == heap.arenas(),
               "frontier count %zu does not match %u arenas",
               frontiers.size(), heap.arenas());
    for (unsigned a = 0; a < frontiers.size(); ++a)
        heap.setFrontier(a, frontiers[a]);
}

} // namespace bbb
