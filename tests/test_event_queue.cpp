/**
 * @file
 * Unit tests for the discrete-event queue: temporal ordering, priority
 * buckets, FIFO tie-breaking, bounded runs, callback slot reuse, and the
 * in-place firing fast path (tryFireInline).
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"

using namespace bbb;

TEST(EventQueue, StartsAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&]() { order.push_back(3); });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickRespectsPriority)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&]() { order.push_back(2); }, EventPriority::CoreOp);
    eq.schedule(5, [&]() { order.push_back(1); },
                EventPriority::DrainComplete);
    eq.schedule(5, [&]() { order.push_back(3); }, EventPriority::Stats);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickSamePriorityIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(7, [&order, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue eq;
    Tick seen = kMaxTick;
    eq.schedule(100, [&]() {
        eq.scheduleIn(50, [&]() { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, RunStopsAtMaxTick)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(10, [&]() { ++count; });
    eq.schedule(20, [&]() { ++count; });
    eq.schedule(30, [&]() { ++count; });
    eq.run(20);
    EXPECT_EQ(count, 2);
    eq.run();
    EXPECT_EQ(count, 3);
}

TEST(EventQueue, StepExecutesOneEvent)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(1, [&]() { ++count; });
    eq.schedule(2, [&]() { ++count; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(count, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, EventsScheduledDuringRunExecute)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&]() {
        if (++depth < 100)
            eq.scheduleIn(1, chain);
    };
    eq.scheduleIn(1, chain);
    eq.run();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, ExecutedCounterCounts)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(static_cast<Tick>(i), []() {});
    eq.run();
    EXPECT_EQ(eq.executed(), 5u);
}

TEST(EventQueue, ZeroDelayEventRunsAtCurrentTick)
{
    EventQueue eq;
    Tick seen = kMaxTick;
    eq.schedule(42, [&]() {
        eq.scheduleIn(0, [&]() { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 42u);
}

TEST(EventQueueDeath, SchedulingInPastPanics)
{
    EventQueue eq;
    eq.schedule(100, []() {});
    eq.run();
    EXPECT_DEATH(eq.schedule(50, []() {}), "scheduling into the past");
}

TEST(EventQueue, LargeCaptureCallbacksWork)
{
    // Captures past SmallFn's inline buffer take the heap fallback; the
    // callback must still fire with its state intact.
    EventQueue eq;
    std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7, h = 8;
    std::uint64_t sum = 0;
    eq.schedule(1, [a, b, c, d, e, f, g, h, &sum]() {
        sum = a + b + c + d + e + f + g + h;
    });
    eq.run();
    EXPECT_EQ(sum, 36u);
}

TEST(EventQueue, FifoSurvivesSlotReuse)
{
    // Fired events free their callback slots for reuse; events parked in
    // recycled slots (lower indices than the queued ones) must still run
    // after every earlier-scheduled event at the same (tick, priority).
    EventQueue eq;
    std::vector<int> order;
    auto record = [&order](int i) {
        return [&order, i]() { order.push_back(i); };
    };
    eq.schedule(1, []() {});
    eq.schedule(2, []() {});
    for (int i = 0; i < 8; ++i)
        eq.schedule(10, record(i));
    eq.schedule(5, [&]() {
        for (int i = 8; i < 12; ++i)
            eq.schedule(10, record(i));
    });
    eq.run();
    EXPECT_EQ(order,
              (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
}

TEST(EventQueue, CallbackMayScheduleBeyondReservedSlots)
{
    // A running callback that grows the slot storage must not be moved
    // out from under itself: its captures stay valid after scheduling.
    EventQueue eq;
    eq.reserve(4);
    std::vector<int> seen;
    int tag = 41;
    std::uint64_t fired = 0;
    eq.schedule(1, [&eq, &seen, &fired, tag]() {
        for (int i = 0; i < 256; ++i)
            eq.scheduleIn(1, [&fired]() { ++fired; });
        seen.push_back(tag + 1);
    });
    eq.run();
    EXPECT_EQ(seen, (std::vector<int>{42}));
    EXPECT_EQ(fired, 256u);
}

// ---------------------------------------------------------------------
// In-place firing (EventQueue::tryFireInline)
// ---------------------------------------------------------------------

TEST(EventQueueInline, RefusesBehindEarlierOrEqualPriorityEvents)
{
    EventQueue eq;
    eq.schedule(10, []() {}, EventPriority::CoreOp);
    bool earlier_tick = true, same_prio = true, lower_prio = true;
    eq.schedule(5, [&]() {
        earlier_tick = eq.tryFireInline(11, EventPriority::DrainComplete);
        same_prio = eq.tryFireInline(10, EventPriority::CoreOp);
        lower_prio = eq.tryFireInline(10, EventPriority::Default);
    });
    eq.run();
    EXPECT_FALSE(earlier_tick);
    EXPECT_FALSE(same_prio);
    EXPECT_FALSE(lower_prio);
    EXPECT_EQ(eq.inlined(), 0u);
    EXPECT_EQ(eq.executed(), 2u);
}

TEST(EventQueueInline, FiresAheadOfLaterOrLowerPriorityEvents)
{
    EventQueue eq;
    eq.schedule(10, []() {}, EventPriority::CoreOp);
    bool higher_prio = false, earlier = false;
    Tick at_higher = 0, at_earlier = 0;
    eq.schedule(5, [&]() {
        earlier = eq.tryFireInline(9, EventPriority::Stats);
        at_earlier = eq.now();
        higher_prio = eq.tryFireInline(10, EventPriority::MemResponse);
        at_higher = eq.now();
    });
    eq.run();
    EXPECT_TRUE(earlier);
    EXPECT_EQ(at_earlier, 9u);
    EXPECT_TRUE(higher_prio);
    EXPECT_EQ(at_higher, 10u);
    EXPECT_EQ(eq.inlined(), 2u);
    EXPECT_EQ(eq.executed(), 4u);
}

TEST(EventQueueInline, RefusesPastRunLimit)
{
    EventQueue eq;
    bool past = true, at_limit = false;
    eq.schedule(10, [&]() {
        past = eq.tryFireInline(21, EventPriority::CoreOp);
        at_limit = eq.tryFireInline(20, EventPriority::CoreOp);
    });
    eq.run(20);
    EXPECT_FALSE(past);
    EXPECT_TRUE(at_limit);
    EXPECT_EQ(eq.now(), 20u);
}

TEST(EventQueueInline, RefusesOutsideRunAndUnderStep)
{
    EventQueue eq;
    EXPECT_FALSE(eq.tryFireInline(0, EventPriority::CoreOp));
    bool under_step = true, nested_run = false;
    eq.schedule(1, [&]() {
        under_step = eq.tryFireInline(2, EventPriority::CoreOp);
    });
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(under_step);

    // step() inside a run()-driven event still never fires in place,
    // and run() is allowed again once step() returns.
    eq.schedule(3, [&]() {
        eq.schedule(4, [&]() {
            under_step = eq.tryFireInline(5, EventPriority::CoreOp);
        });
        EXPECT_TRUE(eq.step());
        nested_run = eq.tryFireInline(6, EventPriority::CoreOp);
    });
    under_step = true;
    eq.run();
    EXPECT_FALSE(under_step);
    EXPECT_TRUE(nested_run);
    EXPECT_EQ(eq.inlined(), 1u);
}

TEST(EventQueueInline, AdvancesClockIdsAndExecutedLikeAPoppedEvent)
{
    // The same continuation, once queued and once fired in place, must
    // leave identical clocks, id sequences and executed() counts.
    EventQueue queued, inlined;
    EventId after_queued = 0, after_inline = 0;
    Tick at_queued = 0, at_inline = 0;
    queued.schedule(5, [&]() {
        queued.schedule(
            8,
            [&]() {
                at_queued = queued.now();
                after_queued = queued.schedule(9, []() {});
            },
            EventPriority::CoreOp);
    });
    inlined.schedule(5, [&]() {
        ASSERT_TRUE(inlined.tryFireInline(8, EventPriority::CoreOp));
        at_inline = inlined.now();
        after_inline = inlined.schedule(9, []() {});
    });
    queued.run();
    inlined.run();
    EXPECT_EQ(at_queued, 8u);
    EXPECT_EQ(at_inline, 8u);
    EXPECT_EQ(after_queued, after_inline);
    EXPECT_EQ(queued.executed(), 3u);
    EXPECT_EQ(inlined.executed(), 3u);
    EXPECT_EQ(queued.now(), inlined.now());
    EXPECT_EQ(queued.inlined(), 0u);
    EXPECT_EQ(inlined.inlined(), 1u);
}

// ---------------------------------------------------------------------
// Event-capacity hint sizing (SystemConfig::eventCapacityHint). The
// hint exists so EventQueue::reserve can pre-size the heap once and
// never reallocate mid-run.
// ---------------------------------------------------------------------

#include "sim/config.hh"

TEST(EventCapacityHint, LegacyFormulaPreserved)
{
    bbb::SystemConfig cfg;
    cfg.num_cores = 8;
    std::size_t legacy = cfg.num_cores * (8 + cfg.store_buffer.entries) +
                         cfg.nvmm.wpq_entries + cfg.nvmm.channels +
                         cfg.dram.channels + 64;
    EXPECT_EQ(cfg.eventCapacityHint(), legacy);
}

TEST(EventCapacityHint, CoreTermIsLinear)
{
    // Each core adds the same share on top of the shared-component
    // overhead, which is counted once.
    bbb::SystemConfig cfg;
    cfg.num_cores = 1;
    std::size_t one = cfg.eventCapacityHint() - cfg.sharedEventHint();
    EXPECT_EQ(one, cfg.perCoreEventHint());
    cfg.num_cores = 4;
    EXPECT_EQ(cfg.eventCapacityHint(), cfg.sharedEventHint() + 4 * one);
}

TEST(EventCapacityHint, ReserveHonorsHint)
{
    bbb::SystemConfig cfg;
    cfg.num_cores = 4;
    EventQueue eq;
    eq.reserve(cfg.eventCapacityHint());
    EXPECT_GE(eq.heapCapacity(), cfg.eventCapacityHint());
}
