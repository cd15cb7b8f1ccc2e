#include "sim/config.hh"

namespace bbb
{

// Each name switch ends its vocabulary with nullptr (sim/names.hh).

const char *
persistModeName(PersistMode m)
{
    switch (m) {
      case PersistMode::AdrPmem:
        return "adr-pmem";
      case PersistMode::PmemStrict:
        return "pmem-strict";
      case PersistMode::AdrUnsafe:
        return "adr-unsafe";
      case PersistMode::Eadr:
        return "eadr";
      case PersistMode::BbbMemSide:
        return "bbb-mem-side";
      case PersistMode::BbbProcSide:
        return "bbb-proc-side";
    }
    return nullptr;
}

const char *
drainPolicyName(DrainPolicy p)
{
    switch (p) {
      case DrainPolicy::Fcfs:
        return "fcfs";
      case DrainPolicy::Lrw:
        return "lrw";
      case DrainPolicy::Random:
        return "random";
    }
    return nullptr;
}

const char *
mediaKindName(MediaKind k)
{
    switch (k) {
      case MediaKind::Direct:
        return "direct";
      case MediaKind::Ftl:
        return "ftl";
    }
    return nullptr;
}

} // namespace bbb
