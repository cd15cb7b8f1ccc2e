/**
 * @file
 * System-wide block-ownership index for the persist buffers.
 *
 * The paper's Invariant 4 says a block lives in at most one bbPB at a
 * time, so ownership questions ("who holds this block?", "which slot is
 * it in?") have a single global answer. This index is that answer as a
 * data structure: one fixed-capacity block table (sim/block_table.hh)
 * over every core's buffer, mapping a block address to its (core,
 * payload) pair, where the payload is the holder's slot index
 * (memory-side slabs) or a record refcount (processor-side rings).
 */

#ifndef BBB_CORE_OWNERSHIP_INDEX_HH
#define BBB_CORE_OWNERSHIP_INDEX_HH

#include <cstdint>

#include "sim/block_table.hh"
#include "sim/types.hh"

namespace bbb
{

/** One ownership record: which core holds the block, plus a payload the
 *  owner interprets (slot index or record refcount). */
struct OwnershipRef
{
    CoreId core;
    std::uint32_t payload;
};

/** Block -> (core, payload) map with fixed capacity (see file comment).
 *  An insert requires the block to be absent: Invariant 4, at most one
 *  holder system-wide. */
using OwnershipIndex = BlockTable<OwnershipRef>;

} // namespace bbb

#endif // BBB_CORE_OWNERSHIP_INDEX_HH
