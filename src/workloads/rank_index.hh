/**
 * @file
 * The rank index behind the rtree and ctree prebuilds.
 *
 * Inserting a key into a binary search tree makes it a leaf under one of
 * its in-order neighbours among the keys already in the tree: under its
 * predecessor's right link if that link is 0, or else under its
 * successor's left link (which is then 0). The prebuild knows every key
 * of an arena before it inserts the first, so it ranks them once and
 * finds both neighbours with two bitset queries instead of walking down
 * the tree. Rotations keep the in-order sequence, so the neighbours stay
 * right through a red-black fixup.
 *
 * Ties follow the walk's rule that an equal key goes right: keys rank by
 * (key, draw index), so a key ranks after every equal key drawn before
 * it. The measured runs and ImageAccessor's word-by-word reference keep
 * walking the tree, so the tests compare the two placements word for
 * word.
 */

#ifndef BBB_WORKLOADS_RANK_INDEX_HH
#define BBB_WORKLOADS_RANK_INDEX_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workloads/accessor.hh"

namespace bbb
{

/**
 * Each key's rank in the order of (key, position), a total order in
 * which equal keys keep their draw order. One counting pass on the
 * keys' top bits sorts them into about as many buckets as keys, and an
 * insertion sort finishes the order. Its cost grows with the square of
 * a bucket's size, so it is linear for keys spread over the whole
 * 64-bit range, as rng.next() draws are: about one key a bucket.
 */
inline std::vector<std::uint32_t>
rankKeys(const std::vector<std::uint64_t> &keys)
{
    struct Item
    {
        std::uint64_t key;
        std::uint32_t pos;

        bool
        operator<(const Item &o) const
        {
            return key != o.key ? key < o.key : pos < o.pos;
        }
    };
    const std::size_t n = keys.size();
    BBB_ASSERT(n < ~std::uint32_t{0}, "too many keys to rank: %zu", n);
    const int bits = std::max<int>(1, std::bit_width(n));
    std::vector<std::uint32_t> start((std::size_t{1} << bits) + 1);
    for (std::uint64_t k : keys)
        ++start[(k >> (64 - bits)) + 1];
    for (std::size_t b = 1; b < start.size(); ++b)
        start[b] += start[b - 1];
    std::vector<Item> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[start[keys[i] >> (64 - bits)]++] = {
            keys[i], static_cast<std::uint32_t>(i)};
    for (std::size_t i = 1; i < n; ++i) {
        Item it = order[i];
        std::size_t j = i;
        for (; j > 0 && it < order[j - 1]; --j)
            order[j] = order[j - 1];
        order[j] = it;
    }
    std::vector<std::uint32_t> rank(n);
    for (std::size_t r = 0; r < n; ++r)
        rank[order[r].pos] = static_cast<std::uint32_t>(r);
    return rank;
}

/**
 * A set of ranks in [0, n) with previous- and next-member queries, one
 * bit per rank. A query scans word by word to the nearest member. With
 * ranks inserted in random order, as the prebuild's random keys are,
 * the gap to a neighbour averages n / i ranks at the i-th insert, so
 * all n inserts scan about (n / 64) ln n words in total.
 */
class RankSet
{
  public:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    explicit RankSet(std::uint32_t n) : _words((n + 63) / 64) {}

    void insert(std::uint32_t r) { _words[r / 64] |= bit(r % 64); }

    /** The largest member below @p r, or kNone. */
    std::uint32_t
    prev(std::uint32_t r) const
    {
        std::size_t w = r / 64;
        std::uint64_t word = _words[w] & lowMask(r % 64);
        while (word == 0) {
            if (w == 0)
                return kNone;
            word = _words[--w];
        }
        return highest(w, word);
    }

    /** The smallest member above @p r, or kNone. */
    std::uint32_t
    next(std::uint32_t r) const
    {
        std::size_t w = r / 64;
        std::uint64_t word = _words[w] & highMask(r % 64);
        while (word == 0) {
            if (++w == _words.size())
                return kNone;
            word = _words[w];
        }
        return lowest(w, word);
    }

  private:
    static constexpr std::uint64_t
    bit(unsigned i)
    {
        return std::uint64_t{1} << i;
    }

    /** The bits below (or above) bit @p i of a word. */
    static constexpr std::uint64_t lowMask(unsigned i) { return bit(i) - 1; }
    static constexpr std::uint64_t
    highMask(unsigned i)
    {
        return ~std::uint64_t{1} << i;
    }

    /** The rank of the highest (lowest) set bit of @p word, the
     *  @p w-th word. */
    static std::uint32_t
    highest(std::size_t w, std::uint64_t word)
    {
        return static_cast<std::uint32_t>(w * 64 + 63 -
                                          std::countl_zero(word));
    }
    static std::uint32_t
    lowest(std::size_t w, std::uint64_t word)
    {
        return static_cast<std::uint32_t>(w * 64 + std::countr_zero(word));
    }

    std::vector<std::uint64_t> _words;
};

/** @p n keys drawn from @p rng, one next() each: a prebuild's inserts. */
inline std::vector<std::uint64_t>
drawKeys(Rng &rng, std::uint64_t n)
{
    std::vector<std::uint64_t> keys(n);
    for (std::uint64_t &k : keys)
        k = rng.next();
    return keys;
}

/**
 * Where each key of a known insert sequence hangs as a new leaf: the
 * keys' ranks, the ranks inserted so far and the node holding each.
 * Insert i asks place(i), links its leaf there and reports placed(i).
 */
class RankIndex
{
  public:
    /** Where a new leaf hangs: @p parent's right or left link, or the
     *  root slot when parent is 0 (the tree is empty). */
    struct Slot
    {
        Addr parent;
        bool right;
    };

    explicit RankIndex(const std::vector<std::uint64_t> &keys)
        : _rank(rankKeys(keys)),
          _ranked(static_cast<std::uint32_t>(keys.size())),
          _node(keys.size())
    {
    }

    /**
     * Key @p i's slot: its predecessor's right link (at @p right_off in
     * a node) if that holds 0, else its successor's left link.
     */
    Slot
    place(MemAccessor &m, std::size_t i, Addr right_off) const
    {
        std::uint32_t r = _rank[i];
        std::uint32_t pred = _ranked.prev(r);
        if (pred != RankSet::kNone && m.ld(_node[pred] + right_off) == 0)
            return {_node[pred], true};
        std::uint32_t succ = _ranked.next(r);
        return {succ == RankSet::kNone ? 0 : _node[succ], false};
    }

    /** Key @p i now lives in @p node. */
    void
    placed(std::size_t i, Addr node)
    {
        _ranked.insert(_rank[i]);
        _node[_rank[i]] = node;
    }

  private:
    std::vector<std::uint32_t> _rank;
    RankSet _ranked;
    std::vector<Addr> _node;
};

} // namespace bbb

#endif // BBB_WORKLOADS_RANK_INDEX_HH
