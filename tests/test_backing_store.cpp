/**
 * @file
 * Unit tests for the sparse functional backing store and the bounds-checked
 * post-crash view over it.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "mem/addr_map.hh"
#include "mem/backing_store.hh"
#include "persist/recovery.hh"

using namespace bbb;

TEST(BackingStore, ZeroInitialised)
{
    BackingStore s;
    unsigned char buf[16];
    std::memset(buf, 0xff, sizeof(buf));
    s.read(12345, buf, sizeof(buf));
    for (unsigned char b : buf)
        EXPECT_EQ(b, 0);
    EXPECT_EQ(s.pagesTouched(), 0u); // reads do not materialise pages
}

TEST(BackingStore, ReadBackWhatWasWritten)
{
    BackingStore s;
    const char msg[] = "battery-backed buffers";
    s.write(1000, msg, sizeof(msg));
    char out[sizeof(msg)];
    s.read(1000, out, sizeof(out));
    EXPECT_STREQ(out, msg);
}

TEST(BackingStore, WritesSpanPageBoundaries)
{
    BackingStore s;
    Addr addr = BackingStore::kPageSize - 8; // straddles two pages
    std::uint64_t vals[4] = {1, 2, 3, 4};
    s.write(addr, vals, sizeof(vals));
    std::uint64_t out[4];
    s.read(addr, out, sizeof(out));
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(out[i], vals[i]);
    EXPECT_EQ(s.pagesTouched(), 2u);
}

TEST(BackingStore, Scalar64Helpers)
{
    BackingStore s;
    s.write64(64, 0xdeadbeefcafef00dull);
    EXPECT_EQ(s.read64(64), 0xdeadbeefcafef00dull);
    EXPECT_EQ(s.read64(72), 0u);
}

TEST(BackingStore, BlockOps)
{
    BackingStore s;
    unsigned char block[kBlockSize];
    for (unsigned i = 0; i < kBlockSize; ++i)
        block[i] = static_cast<unsigned char>(i);
    s.writeBlock(128, block);
    unsigned char out[kBlockSize];
    s.readBlock(128, out);
    EXPECT_EQ(std::memcmp(block, out, kBlockSize), 0);
}

TEST(BackingStore, PartialOverwrite)
{
    BackingStore s;
    s.write64(0, 0x1111111111111111ull);
    std::uint32_t half = 0x22222222;
    s.write(0, &half, 4);
    EXPECT_EQ(s.read64(0), 0x1111111122222222ull);
}

TEST(BackingStore, CloneIsDeepCopy)
{
    BackingStore s;
    s.write64(100, 7);
    BackingStore copy = s.clone();
    s.write64(100, 9);
    EXPECT_EQ(copy.read64(100), 7u);
    EXPECT_EQ(s.read64(100), 9u);
}

TEST(BackingStore, ClearDropsContent)
{
    BackingStore s;
    s.write64(0, 5);
    s.clear();
    EXPECT_EQ(s.read64(0), 0u);
    EXPECT_EQ(s.pagesTouched(), 0u);
}

TEST(BackingStore, SparseHugeAddresses)
{
    BackingStore s;
    Addr far = 15_GiB;
    s.write64(far, 0xabcd);
    EXPECT_EQ(s.read64(far), 0xabcdu);
    EXPECT_EQ(s.pagesTouched(), 1u);
}

TEST(PmemImage, Read64MatchesGeneralReadAtTheEdges)
{
    // read64 takes the store's one-page fast path; it must return what
    // read() returns and count the same out-of-range reads.
    constexpr Addr kPage = BackingStore::kPageSize;
    AddrMap map(64_KiB, 64_KiB);
    BackingStore s;
    auto fill = [&s](Addr from, Addr to) {
        for (Addr a = from; a < to; ++a) {
            unsigned char b = static_cast<unsigned char>(a * 7 + 1);
            s.write(a, &b, 1);
        }
    };
    fill(kPage - 16, kPage + 16);         // two backed pages
    fill(3 * kPage - 16, 3 * kPage);      // page 3 stays unbacked
    fill(map.end() - 16, map.end());      // the last bytes of the map

    const Addr cases[] = {
        kPage - 4,                // straddles two backed pages
        3 * kPage - 4,            // straddles into an unbacked page
        kPage - 16,               // inside one page
        map.end() - 8,            // the last 8 bytes of the map
        map.end() - 4,            // runs past end()
        map.end(),                // starts at end()
        0xdead'0000'beef'0000ull, // wild
    };
    PmemImage fast(s, map);
    PmemImage general(s, map);
    for (Addr a : cases) {
        std::uint64_t v = 0;
        general.read(a, &v, sizeof(v));
        EXPECT_EQ(fast.read64(a), v) << "at " << a;
        EXPECT_EQ(fast.oobReads(), general.oobReads()) << "at " << a;
    }
    EXPECT_EQ(fast.oobReads(), 3u);
    EXPECT_NE(fast.read64(kPage - 4), 0u);
    EXPECT_NE(fast.read64(map.end() - 8), 0u);
}

TEST(BackingStoreDeath, UnalignedBlockOpsPanic)
{
    BackingStore s;
    unsigned char buf[kBlockSize];
    EXPECT_DEATH(s.readBlock(3, buf), "unaligned");
    EXPECT_DEATH(s.writeBlock(65, buf), "unaligned");
}
