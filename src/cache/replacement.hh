/**
 * @file
 * Replacement policy selection for set-associative arrays.
 *
 * Policies are stamp-based: the array records a per-line stamp whose update
 * rule depends on the policy, and the victim is the valid line with the
 * smallest stamp (invalid lines always win).
 */

#ifndef BBB_CACHE_REPLACEMENT_HH
#define BBB_CACHE_REPLACEMENT_HH

#include <cstdint>

#include "sim/rng.hh"

namespace bbb
{

/** Supported replacement policies. The values are fixed because
 *  parameterized test names print them. */
enum class ReplPolicy
{
    Lru = 0,    ///< stamp refreshed on every touch
    Random = 2, ///< stamp is a random draw on fill
};

/** Printable policy name. */
inline const char *
replPolicyName(ReplPolicy p)
{
    switch (p) {
      case ReplPolicy::Lru:
        return "lru";
      case ReplPolicy::Random:
        return "random";
    }
    return "unknown";
}

/** Stamp generator shared by one cache array. */
class ReplStamper
{
  public:
    explicit ReplStamper(ReplPolicy policy, std::uint64_t seed = 7)
        : _policy(policy), _rng(seed)
    {
    }

    ReplPolicy policy() const { return _policy; }

    /** Stamp for a line being filled. */
    std::uint64_t
    onFill()
    {
        return _policy == ReplPolicy::Random ? _rng.next() : ++_clock;
    }

    /** Stamp for a line being accessed; 0 means "keep existing stamp". */
    std::uint64_t
    onTouch()
    {
        return _policy == ReplPolicy::Lru ? ++_clock : 0;
    }

  private:
    ReplPolicy _policy;
    std::uint64_t _clock = 0;
    Rng _rng;
};

} // namespace bbb

#endif // BBB_CACHE_REPLACEMENT_HH
