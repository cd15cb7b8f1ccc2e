/**
 * @file
 * MESI coherence state for private L1 lines.
 */

#ifndef BBB_CACHE_MESI_HH
#define BBB_CACHE_MESI_HH

namespace bbb
{

/** Classic MESI states, held per L1 line. */
enum class Mesi
{
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

/** Printable state name. */
inline const char *
mesiName(Mesi s)
{
    switch (s) {
      case Mesi::Invalid:
        return "I";
      case Mesi::Shared:
        return "S";
      case Mesi::Exclusive:
        return "E";
      case Mesi::Modified:
        return "M";
    }
    return "?";
}

/** True if the state permits a local store without a coherence request. */
inline bool
canWriteSilently(Mesi s)
{
    return s == Mesi::Modified || s == Mesi::Exclusive;
}

} // namespace bbb

#endif // BBB_CACHE_MESI_HH
