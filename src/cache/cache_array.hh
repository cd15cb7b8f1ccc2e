/**
 * @file
 * Generic set-associative tag/data array.
 *
 * The line type is a template parameter so the L1 (MESI state per line) and
 * the LLC (dirty/persistent bits plus directory info) share the indexing,
 * lookup, and victim-selection machinery.
 */

#ifndef BBB_CACHE_CACHE_ARRAY_HH
#define BBB_CACHE_CACHE_ARRAY_HH

#include <cstdint>
#include <vector>

#include "cache/replacement.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace bbb
{

/** Required base fields for any cache line type. */
struct CacheLineBase
{
    Addr block = kBadAddr;
    bool valid = false;
    std::uint64_t stamp = 0;
};

/** Set-associative array of @p Line (which must derive CacheLineBase). */
template <typename Line>
class CacheArray
{
  public:
    CacheArray(std::uint64_t size_bytes, unsigned assoc,
               ReplPolicy policy = ReplPolicy::Lru, std::uint64_t seed = 7)
        : _assoc(assoc), _stamper(policy, seed)
    {
        BBB_ASSERT(assoc > 0, "associativity must be positive");
        std::uint64_t lines = size_bytes / kBlockSize;
        BBB_ASSERT(lines >= assoc && lines % assoc == 0,
                   "cache size %llu not divisible into %u-way sets",
                   (unsigned long long)size_bytes, assoc);
        _sets = lines / assoc;
        _lines.resize(lines);
    }

    std::uint64_t numSets() const { return _sets; }
    unsigned assoc() const { return _assoc; }
    std::uint64_t numLines() const { return _lines.size(); }

    /** Set index of a block address. */
    std::uint64_t
    setIndex(Addr block) const
    {
        return (block >> kBlockShift) % _sets;
    }

    /** Find the valid line holding @p block, or nullptr. */
    Line *
    find(Addr block)
    {
        block = blockAlign(block);
        Line *base = setBase(setIndex(block));
        for (unsigned w = 0; w < _assoc; ++w) {
            Line &l = base[w];
            if (l.valid && l.block == block)
                return &l;
        }
        return nullptr;
    }

    const Line *
    find(Addr block) const
    {
        return const_cast<CacheArray *>(this)->find(block);
    }

    /** Refresh a line's recency per the replacement policy. */
    void
    touch(Line &line)
    {
        std::uint64_t s = _stamper.onTouch();
        if (s)
            line.stamp = s;
    }

    /**
     * Pick the victim line for installing @p block. Prefers an invalid way;
     * otherwise the valid line with the smallest stamp. The caller is
     * responsible for evicting the victim's previous contents, then calls
     * fill().
     */
    Line &
    victim(Addr block)
    {
        return victimWhere(block, [](const Line &) { return true; });
    }

    /**
     * Victim selection with an eligibility predicate: among valid lines,
     * only those satisfying @p eligible are considered. Used to keep
     * bbPB-resident blocks cached (the paper's bbPB inclusion
     * requirement). Protection is bounded: if more than half the set's
     * ways are ineligible — or no way is eligible — the predicate is
     * ignored so protected lines cannot starve the set.
     */
    template <typename Pred>
    Line &
    victimWhere(Addr block, Pred eligible)
    {
        Line *base = setBase(setIndex(blockAlign(block)));
        Line *best = nullptr;
        Line *fallback = &base[0];
        unsigned protected_ways = 0;
        for (unsigned w = 0; w < _assoc; ++w) {
            Line &l = base[w];
            if (!l.valid)
                return l;
            if (l.stamp < fallback->stamp)
                fallback = &l;
            if (eligible(l)) {
                if (!best || l.stamp < best->stamp)
                    best = &l;
            } else {
                ++protected_ways;
            }
        }
        if (!best || protected_ways > _assoc / 2)
            return *fallback;
        return *best;
    }

    /** Initialise @p line for @p block (caller sets type-specific state). */
    void
    fill(Line &line, Addr block)
    {
        line = Line{};
        line.block = blockAlign(block);
        line.valid = true;
        line.stamp = _stamper.onFill();
    }

    /** Invalidate a line. */
    void
    invalidate(Line &line)
    {
        line = Line{};
    }

    /** Apply @p fn to every valid line. Templated (not std::function) so
     *  per-line callbacks inline into the scan loop. */
    template <typename Fn>
    void
    forEachValid(Fn &&fn)
    {
        for (Line &l : _lines) {
            if (l.valid)
                fn(l);
        }
    }

    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (const Line &l : _lines) {
            if (l.valid)
                fn(l);
        }
    }

  private:
    Line *
    setBase(std::uint64_t set)
    {
        return &_lines[set * _assoc];
    }

    std::uint64_t _sets;
    unsigned _assoc;
    ReplStamper _stamper;
    std::vector<Line> _lines;
};

} // namespace bbb

#endif // BBB_CACHE_CACHE_ARRAY_HH
