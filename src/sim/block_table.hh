/**
 * @file
 * Fixed-capacity open-addressed map from a block address to a small
 * value, shared by every structure that indexes resident blocks: the
 * system-wide bbPB ownership index (core/ownership_index.hh) and the
 * memory controller's WPQ block index (mem/mem_ctrl.hh).
 *
 * The table is sized once at construction to a power of two at most
 * half full (capacity >= 2 x the worst-case entry count) and never
 * rehashes, so lookups, inserts, and erases are O(1) with short linear
 * probes and the hot persist path performs no heap allocation. Erase
 * uses backward-shift deletion, so there are no tombstones and probe
 * chains never degrade over a run.
 */

#ifndef BBB_SIM_BLOCK_TABLE_HH
#define BBB_SIM_BLOCK_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace bbb
{

/** Block -> @p Value map with fixed capacity (see file comment). */
template <typename Value>
class BlockTable
{
    static_assert(std::is_trivially_copyable_v<Value>,
                  "cells are shifted by plain copies");

  public:
    /**
     * Size the table for @p max_entries simultaneously-present blocks:
     * the smallest power of two >= 2 x max_entries (min 16 cells).
     */
    explicit BlockTable(std::size_t max_entries)
    {
        std::size_t cap = 16;
        while (cap < 2 * max_entries)
            cap *= 2;
        _cells.resize(cap, Cell{kBadAddr, Value{}});
        _mask = cap - 1;
    }

    std::size_t size() const { return _size; }
    std::size_t capacity() const { return _cells.size(); }

    /** Home bucket of @p block (exposed so tests can craft collisions). */
    std::size_t
    bucketOf(Addr block) const
    {
        // Fibonacci hashing over the block number: multiplying by the
        // 64-bit golden ratio spreads the sequential block addresses the
        // workloads generate across the table.
        std::uint64_t x = (block >> kBlockShift) * 0x9e3779b97f4a7c15ull;
        return static_cast<std::size_t>(x >> 32) & _mask;
    }

    /** Value stored for @p block, or nullptr when absent. */
    const Value *
    find(Addr block) const
    {
        std::size_t i = bucketOf(block);
        while (_cells[i].block != kBadAddr) {
            if (_cells[i].block == block)
                return &_cells[i].value;
            i = (i + 1) & _mask;
        }
        return nullptr;
    }

    /** Mutable value (in-place updates), or nullptr. */
    Value *
    find(Addr block)
    {
        return const_cast<Value *>(
            static_cast<const BlockTable *>(this)->find(block));
    }

    /** Record @p value for @p block, which must be absent. */
    void
    insert(Addr block, const Value &value)
    {
        BBB_ASSERT(_size < _cells.size() / 2 + 1, "block table over capacity");
        std::size_t i = bucketOf(block);
        while (_cells[i].block != kBadAddr) {
            BBB_ASSERT(_cells[i].block != block, "block %#llx already held",
                       (unsigned long long)block);
            i = (i + 1) & _mask;
        }
        _cells[i] = Cell{block, value};
        ++_size;
    }

    /** Drop @p block's record (must exist). Backward-shift deletion keeps
     *  every remaining probe chain contiguous. */
    void
    erase(Addr block)
    {
        std::size_t i = bucketOf(block);
        while (_cells[i].block != block) {
            BBB_ASSERT(_cells[i].block != kBadAddr,
                       "erasing unheld block %#llx",
                       (unsigned long long)block);
            i = (i + 1) & _mask;
        }
        std::size_t hole = i;
        for (;;) {
            i = (i + 1) & _mask;
            if (_cells[i].block == kBadAddr)
                break;
            // A cell may only move back if its home bucket precedes the
            // hole along the (wrapping) probe sequence.
            std::size_t home = bucketOf(_cells[i].block);
            if (((i - home) & _mask) >= ((i - hole) & _mask)) {
                _cells[hole] = _cells[i];
                hole = i;
            }
        }
        _cells[hole] = Cell{kBadAddr, Value{}};
        --_size;
    }

    /** Forget every record. Capacity is retained. */
    void
    clear()
    {
        if (_size == 0)
            return;
        std::fill(_cells.begin(), _cells.end(), Cell{kBadAddr, Value{}});
        _size = 0;
    }

  private:
    struct Cell
    {
        Addr block; ///< kBadAddr marks an empty cell
        Value value;
    };

    std::vector<Cell> _cells;
    std::size_t _mask = 0;
    std::size_t _size = 0;
};

} // namespace bbb

#endif // BBB_SIM_BLOCK_TABLE_HH
