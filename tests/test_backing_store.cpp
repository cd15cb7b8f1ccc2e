/**
 * @file
 * Unit tests for the sparse functional backing store and the bounds-checked
 * post-crash view over it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "mem/addr_map.hh"
#include "mem/backing_store.hh"
#include "persist/recovery.hh"
#include "sim/rng.hh"

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

TEST(BackingStore, Scalar64HelpersStraddlePages)
{
    // Every split of an 8-byte word across a page boundary: the low
    // bytes end one page and the rest start the next.
    for (unsigned low = 1; low < 8; ++low) {
        BackingStore s;
        Addr addr = 2 * BackingStore::kPageSize - low;
        std::uint64_t v = 0x0807060504030201ull;
        s.write64(addr, v);
        EXPECT_EQ(s.read64(addr), v) << low;
        unsigned char bytes[10] = {};
        s.read(addr - 1, bytes, sizeof(bytes));
        EXPECT_EQ(bytes[0], 0u) << low;
        for (unsigned i = 0; i < 8; ++i)
            EXPECT_EQ(bytes[1 + i], i + 1) << low;
        EXPECT_EQ(bytes[9], 0u) << low;
        EXPECT_EQ(s.pagesTouched(), 2u) << low;
    }
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

namespace
{

/**
 * The fingerprint's definition, byte by byte: FNV-1a over every page of
 * @p pages that holds a non-zero byte, in address order, each page's
 * number (8 bytes, little-endian) followed by its 4096 bytes.
 */
std::uint64_t
referenceFingerprint(const BackingStore &s, std::vector<Addr> pages)
{
    std::sort(pages.begin(), pages.end());
    pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](unsigned char b) {
        h ^= b;
        h *= 1099511628211ull;
    };
    std::vector<unsigned char> bytes(BackingStore::kPageSize);
    for (Addr page : pages) {
        s.read(page * BackingStore::kPageSize, bytes.data(), bytes.size());
        if (std::all_of(bytes.begin(), bytes.end(),
                        [](unsigned char b) { return b == 0; }))
            continue;
        for (unsigned i = 0; i < 8; ++i)
            mix(static_cast<unsigned char>(page >> (8 * i)));
        for (unsigned char b : bytes)
            mix(b);
    }
    return h;
}

} // namespace

TEST(BackingStore, FingerprintMatchesByteSerialFnv)
{
    constexpr Addr kPage = BackingStore::kPageSize;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        Rng rng(seed);
        BackingStore s;
        std::vector<Addr> pages;
        for (unsigned n = 0; n < 24; ++n) {
            // Page numbers from 0 up to the far end of a 16 GiB space,
            // with neighbours so consecutive pages occur.
            Addr page = rng.below(3) == 0 ? rng.below(8)
                                          : rng.below(16_GiB / kPage);
            if (rng.below(4) == 0 && !pages.empty())
                page = pages.back() + 1;
            pages.push_back(page);
            Addr base = page * kPage;
            switch (rng.below(6)) {
              case 0: // materialised but all zero
                s.write64(base + 8 * rng.below(kPage / 8), 0);
                break;
              case 1: // only the last byte is non-zero
                s.write(base + kPage - 1, "\x5a", 1);
                break;
              case 2: // only the first byte is non-zero
                s.write(base, "\x01", 1);
                break;
              default: // runs of zero words, small and random words
                for (Addr off = 0; off < kPage; off += 8) {
                    std::uint64_t v = 0;
                    switch (rng.below(5)) {
                      case 0:
                        v = rng.next();
                        break;
                      case 1: // trailing (high) zero bytes
                        v = rng.next() >> (8 * rng.below(8));
                        break;
                      case 2: // leading (low) zero bytes
                        v = rng.next() << (8 * rng.below(8));
                        break;
                      default:
                        break;
                    }
                    if (v != 0)
                        s.write64(base + off, v);
                }
                break;
            }
        }
        EXPECT_EQ(s.fingerprint(), referenceFingerprint(s, pages))
            << "seed " << seed;
    }
}

TEST(BackingStore, FingerprintOfEdgeImages)
{
    constexpr Addr kPage = BackingStore::kPageSize;
    BackingStore s;
    const std::uint64_t empty = s.fingerprint();
    EXPECT_EQ(empty, referenceFingerprint(s, {}));

    s.write64(5 * kPage, 0); // a materialised zero page hashes as absent
    EXPECT_EQ(s.fingerprint(), empty);

    s.write(15_GiB + kPage - 1, "\x80", 1); // a lone last byte, far away
    EXPECT_NE(s.fingerprint(), empty);
    EXPECT_EQ(s.fingerprint(), referenceFingerprint(s, {5, 15_GiB / kPage}));

    s.write64(0, 0x00ff000000000001ull); // page 0: a zero page number
    s.write64(kPage - 8, 0xff00000000000000ull);
    EXPECT_EQ(s.fingerprint(),
              referenceFingerprint(s, {0, 5, 15_GiB / kPage}));

    // Content decides, not which pages materialised.
    BackingStore t;
    t.write(15_GiB + kPage - 1, "\x80", 1);
    t.write64(0, 0x00ff000000000001ull);
    t.write64(kPage - 8, 0xff00000000000000ull);
    EXPECT_EQ(t.fingerprint(), s.fingerprint());
}

TEST(BackingStore, IndexGrowthKeepsEveryPage)
{
    // 10 Ki pages take the page index through ten doublings.
    constexpr unsigned kPages = 10240;
    constexpr Addr kStride = 7 * BackingStore::kPageSize + 64;
    BackingStore s;
    for (unsigned i = 0; i < kPages; ++i)
        s.write64(i * kStride, i + 1);
    EXPECT_EQ(s.pagesTouched(), kPages);
    for (unsigned i = 0; i < kPages; ++i)
        ASSERT_EQ(s.read64(i * kStride), i + 1u) << "page " << i;
    EXPECT_EQ(s.read64(kPages * kStride), 0u);
    EXPECT_EQ(s.pagesTouched(), kPages);
}

TEST(BackingStore, CloneStaysIndependentAfterGrowthAndClear)
{
    constexpr unsigned kPages = 3000;
    constexpr Addr kStride = 3 * BackingStore::kPageSize;
    BackingStore s;
    for (unsigned i = 0; i < kPages; ++i)
        s.write64(i * kStride, i + 1);
    BackingStore copy = s.clone();
    EXPECT_EQ(copy.pagesTouched(), kPages);
    EXPECT_EQ(copy.fingerprint(), s.fingerprint());

    for (unsigned i = 0; i < kPages; ++i)
        s.write64(i * kStride, 0);
    copy.write64(kPages * kStride, 7); // grows the copy only
    for (unsigned i = 0; i < kPages; ++i) {
        ASSERT_EQ(copy.read64(i * kStride), i + 1u) << "page " << i;
        ASSERT_EQ(s.read64(i * kStride), 0u) << "page " << i;
    }
    EXPECT_EQ(s.read64(kPages * kStride), 0u);
    EXPECT_EQ(s.pagesTouched(), kPages);
    EXPECT_EQ(copy.pagesTouched(), kPages + 1);

    copy.clear();
    EXPECT_EQ(copy.pagesTouched(), 0u);
    EXPECT_EQ(copy.read64(kStride), 0u);
    copy.write64(kStride, 9);
    EXPECT_EQ(copy.read64(kStride), 9u);
    EXPECT_EQ(s.read64(kStride), 0u);
    EXPECT_EQ(copy.fingerprint(), referenceFingerprint(copy, {3}));
}

TEST(BackingStore, MovedFromStoreIsEmptyAndIndependent)
{
    constexpr Addr kAddr = BackingStore::kPageSize;
    {
        BackingStore a;
        a.write64(kAddr, 1);
        EXPECT_EQ(a.read64(kAddr), 1u); // the page is in a's cache
        BackingStore b(std::move(a));
        EXPECT_EQ(a.pagesTouched(), 0u);
        EXPECT_EQ(a.read64(kAddr), 0u);
        a.write64(kAddr, 7);
        EXPECT_EQ(b.read64(kAddr), 1u);
        EXPECT_EQ(a.read64(kAddr), 7u);
        EXPECT_EQ(a.pagesTouched(), 1u);
        EXPECT_EQ(b.pagesTouched(), 1u);
    }
    {
        BackingStore a;
        BackingStore b;
        a.write64(kAddr, 1);
        b.write64(2 * kAddr, 2);
        EXPECT_EQ(a.read64(kAddr), 1u);
        EXPECT_EQ(b.read64(2 * kAddr), 2u);
        b = std::move(a);
        EXPECT_EQ(b.read64(kAddr), 1u);
        EXPECT_EQ(b.read64(2 * kAddr), 0u); // b's old content is gone
        EXPECT_EQ(a.pagesTouched(), 0u);
        EXPECT_EQ(a.read64(kAddr), 0u);
        a.write64(kAddr, 7);
        EXPECT_EQ(b.read64(kAddr), 1u);
        EXPECT_EQ(a.read64(kAddr), 7u);
        EXPECT_EQ(b.pagesTouched(), 1u);
    }
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
