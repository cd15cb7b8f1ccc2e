/**
 * @file
 * Unit tests for the fixed-capacity OwnershipIndex: sizing, collision
 * probing, wraparound at the end of the table, and backward-shift
 * deletion keeping probe chains intact.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/ownership_index.hh"

using namespace bbb;

namespace
{

/** Block address with a given block number (addresses are block ids
 *  shifted up; the index hashes the block number). */
Addr
blk(std::uint64_t n)
{
    return n << kBlockShift;
}

/** Find @p want block numbers whose home bucket is exactly @p bucket. */
std::vector<Addr>
blocksHashingTo(const OwnershipIndex &idx, std::size_t bucket,
                std::size_t want)
{
    std::vector<Addr> out;
    for (std::uint64_t n = 1; out.size() < want && n < 1u << 20; ++n) {
        if (idx.bucketOf(blk(n)) == bucket)
            out.push_back(blk(n));
    }
    EXPECT_EQ(out.size(), want) << "not enough colliding blocks found";
    return out;
}

} // namespace

TEST(OwnershipIndex, CapacityIsPowerOfTwoAtMostHalfFull)
{
    OwnershipIndex tiny(1);
    EXPECT_EQ(tiny.capacity(), 16u); // floor

    OwnershipIndex idx(256); // 8 cores x 32 entries
    EXPECT_GE(idx.capacity(), 512u);
    EXPECT_EQ(idx.capacity() & (idx.capacity() - 1), 0u);
}

TEST(OwnershipIndex, InsertFindErase)
{
    OwnershipIndex idx(64);
    EXPECT_EQ(idx.find(blk(1)), nullptr);

    idx.insert(blk(1), {3, 7});
    ASSERT_NE(idx.find(blk(1)), nullptr);
    EXPECT_EQ(idx.find(blk(1))->core, 3u);
    EXPECT_EQ(idx.find(blk(1))->payload, 7u);
    EXPECT_EQ(idx.size(), 1u);

    // Mutable find: payload updates in place.
    idx.find(blk(1))->payload = 9;
    EXPECT_EQ(idx.find(blk(1))->payload, 9u);

    idx.erase(blk(1));
    EXPECT_EQ(idx.find(blk(1)), nullptr);
    EXPECT_EQ(idx.size(), 0u);
}

TEST(OwnershipIndex, CollidingBlocksProbeLinearly)
{
    OwnershipIndex idx(64);
    auto blocks = blocksHashingTo(idx, 5, 4);
    for (std::uint32_t i = 0; i < blocks.size(); ++i)
        idx.insert(blocks[i], {i, 100 + i});
    for (std::uint32_t i = 0; i < blocks.size(); ++i) {
        ASSERT_NE(idx.find(blocks[i]), nullptr);
        EXPECT_EQ(idx.find(blocks[i])->core, i);
        EXPECT_EQ(idx.find(blocks[i])->payload, 100 + i);
    }

    // Erase the middle of the chain; the rest must stay reachable
    // (backward-shift deletion leaves no tombstone holes).
    idx.erase(blocks[1]);
    EXPECT_EQ(idx.find(blocks[1]), nullptr);
    for (std::uint32_t i : {0u, 2u, 3u}) {
        ASSERT_NE(idx.find(blocks[i]), nullptr) << "lost block " << i;
        EXPECT_EQ(idx.find(blocks[i])->payload, 100 + i);
    }
}

TEST(OwnershipIndex, ProbesWrapAroundTableEnd)
{
    OwnershipIndex idx(8); // capacity 16
    std::size_t last = idx.capacity() - 1;
    // Fill the last bucket and force the chain across the wrap point.
    auto blocks = blocksHashingTo(idx, last, 3);
    for (std::uint32_t i = 0; i < blocks.size(); ++i)
        idx.insert(blocks[i], {0, i});
    for (std::uint32_t i = 0; i < blocks.size(); ++i) {
        ASSERT_NE(idx.find(blocks[i]), nullptr);
        EXPECT_EQ(idx.find(blocks[i])->payload, i);
    }
    // Erase across the wrap: survivors must shift back over the boundary.
    idx.erase(blocks[0]);
    for (std::uint32_t i : {1u, 2u}) {
        ASSERT_NE(idx.find(blocks[i]), nullptr);
        EXPECT_EQ(idx.find(blocks[i])->payload, i);
    }
}

TEST(OwnershipIndex, BackwardShiftKeepsUnrelatedChainsIntact)
{
    OwnershipIndex idx(64); // capacity 128
    // Two chains: one homed at bucket 10, one at bucket 11. Deleting from
    // the first must not orphan members of the second that sit in the
    // overflow region between them.
    auto a = blocksHashingTo(idx, 10, 3);
    auto b = blocksHashingTo(idx, 11, 3);
    for (std::uint32_t i = 0; i < 3; ++i) {
        idx.insert(a[i], {1, i});
        idx.insert(b[i], {2, 10 + i});
    }
    idx.erase(a[0]);
    idx.erase(a[2]);
    ASSERT_NE(idx.find(a[1]), nullptr);
    EXPECT_EQ(idx.find(a[1])->payload, 1u);
    for (std::uint32_t i = 0; i < 3; ++i) {
        ASSERT_NE(idx.find(b[i]), nullptr) << "lost chain-b block " << i;
        EXPECT_EQ(idx.find(b[i])->core, 2u);
        EXPECT_EQ(idx.find(b[i])->payload, 10 + i);
    }
}

TEST(OwnershipIndex, ClearForgetsEverythingKeepsCapacity)
{
    OwnershipIndex idx(32);
    std::size_t cap = idx.capacity();
    for (std::uint64_t n = 0; n < 20; ++n)
        idx.insert(blk(n), {0, static_cast<std::uint32_t>(n)});
    EXPECT_EQ(idx.size(), 20u);
    idx.clear();
    EXPECT_EQ(idx.size(), 0u);
    EXPECT_EQ(idx.capacity(), cap);
    for (std::uint64_t n = 0; n < 20; ++n)
        EXPECT_EQ(idx.find(blk(n)), nullptr);
    // Reusable after clear.
    idx.insert(blk(3), {1, 4});
    ASSERT_NE(idx.find(blk(3)), nullptr);
    EXPECT_EQ(idx.find(blk(3))->core, 1u);
}

TEST(OwnershipIndex, FillToDeclaredCapacityAndDrainInOddOrder)
{
    constexpr std::size_t kMax = 48;
    OwnershipIndex idx(kMax);
    for (std::uint64_t n = 0; n < kMax; ++n)
        idx.insert(blk(n * 977 + 13), {0, static_cast<std::uint32_t>(n)});
    EXPECT_EQ(idx.size(), kMax);
    // Remove odd insertions first, then even, verifying lookups at each
    // step — stresses repeated backward shifts on a loaded table.
    for (std::uint64_t n = 1; n < kMax; n += 2)
        idx.erase(blk(n * 977 + 13));
    for (std::uint64_t n = 0; n < kMax; n += 2) {
        ASSERT_NE(idx.find(blk(n * 977 + 13)), nullptr);
        EXPECT_EQ(idx.find(blk(n * 977 + 13))->payload, n);
    }
    for (std::uint64_t n = 0; n < kMax; n += 2)
        idx.erase(blk(n * 977 + 13));
    EXPECT_EQ(idx.size(), 0u);
}

TEST(OwnershipIndexDeath, DuplicateInsertPanics)
{
    OwnershipIndex idx(8);
    idx.insert(blk(1), {0, 0});
    EXPECT_DEATH(idx.insert(blk(1), {1, 0}), "already held");
}

TEST(OwnershipIndexDeath, EraseOfAbsentBlockPanics)
{
    OwnershipIndex idx(8);
    EXPECT_DEATH(idx.erase(blk(2)), "unheld");
}
