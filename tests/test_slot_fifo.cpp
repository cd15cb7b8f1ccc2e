/**
 * @file
 * Unit tests for SlotFifo, the fixed slot pool behind the bbPB slabs and
 * the WPQ: insertion order, removal from anywhere, capacity, and clear.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/slot_fifo.hh"

using namespace bbb;

namespace
{

using Fifo = SlotFifo<int>;

/** Items oldest-first. */
std::vector<int>
items(const Fifo &f)
{
    std::vector<int> out;
    for (std::uint32_t s = f.head(); s != Fifo::kNil; s = f.next(s))
        out.push_back(f[s]);
    return out;
}

std::uint32_t
push(Fifo &f, int v)
{
    std::uint32_t s = f.pushBack();
    f[s] = v;
    return s;
}

} // namespace

TEST(SlotFifo, KeepsInsertionOrderUpToCapacity)
{
    Fifo f(4);
    EXPECT_EQ(f.capacity(), 4u);
    EXPECT_EQ(f.head(), Fifo::kNil);
    for (int v = 1; v <= 4; ++v)
        push(f, v);
    EXPECT_TRUE(f.full());
    EXPECT_EQ(f.size(), 4u);
    EXPECT_EQ(items(f), (std::vector<int>{1, 2, 3, 4}));
}

TEST(SlotFifo, RemovesFromHeadMiddleAndTail)
{
    Fifo f(5);
    std::vector<std::uint32_t> s;
    for (int v = 1; v <= 5; ++v)
        s.push_back(push(f, v));
    f.remove(s[2]); // middle
    EXPECT_EQ(items(f), (std::vector<int>{1, 2, 4, 5}));
    f.remove(s[0]); // head
    EXPECT_EQ(items(f), (std::vector<int>{2, 4, 5}));
    f.remove(s[4]); // tail
    EXPECT_EQ(items(f), (std::vector<int>{2, 4}));
    // New entries append after the surviving tail, reusing freed slots.
    push(f, 6);
    push(f, 7);
    EXPECT_EQ(items(f), (std::vector<int>{2, 4, 6, 7}));
    EXPECT_EQ(f.size(), 4u);
    EXPECT_FALSE(f.full());
}

TEST(SlotFifo, SlotIndicesStayStableWhileLive)
{
    Fifo f(3);
    std::uint32_t a = push(f, 10);
    std::uint32_t b = push(f, 20);
    f.remove(a);
    push(f, 30);
    EXPECT_EQ(f[b], 20);
    EXPECT_EQ(f.head(), b);
}

TEST(SlotFifo, ClearFreesEverySlotLowestIndexFirst)
{
    Fifo f(3);
    for (int v = 1; v <= 3; ++v)
        push(f, v);
    f.clear();
    EXPECT_EQ(f.size(), 0u);
    EXPECT_EQ(f.head(), Fifo::kNil);
    for (std::uint32_t s = 0; s < 3; ++s)
        EXPECT_EQ(f[s], 0) << "item not reset in slot " << s;
    EXPECT_EQ(f.pushBack(), 0u);
    EXPECT_EQ(f.pushBack(), 1u);
}

TEST(SlotFifoDeath, PushPastCapacityPanics)
{
    Fifo f(1);
    f.pushBack();
    EXPECT_DEATH(f.pushBack(), "slot pool full");
}
