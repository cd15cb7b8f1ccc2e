#include "sim/config.hh"

#include "sim/logging.hh"

namespace bbb
{

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
    return "unknown";
}

constexpr PersistMode kPersistModes[] = {
    PersistMode::AdrPmem, PersistMode::PmemStrict, PersistMode::AdrUnsafe,
    PersistMode::Eadr, PersistMode::BbbMemSide, PersistMode::BbbProcSide};

std::string
persistModeNameError(const std::string &name)
{
    for (PersistMode m : kPersistModes)
        if (name == persistModeName(m))
            return "";
    return "unknown persistency mode '" + name + "'";
}

PersistMode
persistModeFromName(const std::string &name)
{
    for (PersistMode m : kPersistModes)
        if (name == persistModeName(m))
            return m;
    fatal("unknown persistency mode '%s'", name.c_str());
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
    return "unknown";
}

DrainPolicy
drainPolicyFromName(const std::string &name)
{
    for (DrainPolicy p :
         {DrainPolicy::Fcfs, DrainPolicy::Lrw, DrainPolicy::Random}) {
        if (name == drainPolicyName(p))
            return p;
    }
    fatal("unknown drain policy '%s'", name.c_str());
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
    return "unknown";
}

MediaKind
mediaKindFromName(const std::string &name)
{
    for (MediaKind k : {MediaKind::Direct, MediaKind::Ftl}) {
        if (name == mediaKindName(k))
            return k;
    }
    fatal("unknown media kind '%s'", name.c_str());
}

} // namespace bbb
