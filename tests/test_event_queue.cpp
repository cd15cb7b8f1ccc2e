/**
 * @file
 * Unit tests for the discrete-event queue: temporal ordering, priority
 * buckets, FIFO tie-breaking, cancellation, bounded runs, callback slot
 * reuse, and the in-place firing fast path (tryFireInline).
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

TEST(EventQueue, DescheduleCancelsEvent)
{
    EventQueue eq;
    bool fired = false;
    EventId id = eq.schedule(10, [&]() { fired = true; });
    eq.deschedule(id);
    eq.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, PendingExcludesDescheduledEvents)
{
    EventQueue eq;
    EventId a = eq.schedule(10, []() {});
    eq.schedule(20, []() {});
    EXPECT_EQ(eq.pending(), 2u);
    eq.deschedule(a);
    EXPECT_EQ(eq.pending(), 1u);
    eq.deschedule(a); // double-deschedule must not decrement again
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, EmptyIgnoresCancelledResidue)
{
    EventQueue eq;
    EventId a = eq.schedule(10, []() {});
    EXPECT_FALSE(eq.empty());
    eq.deschedule(a);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, MassDescheduleDoesNotDisturbSurvivors)
{
    // Cancel enough events to trigger the internal compaction, then check
    // the survivors still run in FIFO order within a (tick, priority).
    EventQueue eq;
    std::vector<int> order;
    std::vector<EventId> doomed;
    for (int i = 0; i < 64; ++i) {
        if (i % 2 == 0) {
            doomed.push_back(
                eq.schedule(7, []() { FAIL() << "cancelled event fired"; }));
        } else {
            eq.schedule(7, [&order, i]() { order.push_back(i); });
        }
    }
    for (EventId id : doomed)
        eq.deschedule(id);
    EXPECT_EQ(eq.pending(), 32u);
    eq.run();
    ASSERT_EQ(order.size(), 32u);
    for (std::size_t i = 1; i < order.size(); ++i)
        EXPECT_LT(order[i - 1], order[i]);
}

TEST(EventQueue, DescheduleUnknownIdIsNoop)
{
    EventQueue eq;
    eq.schedule(10, []() {});
    eq.deschedule(12345); // never scheduled
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(eq.executed(), 1u);
}

TEST(EventQueue, DescheduleAfterFireIsSafe)
{
    EventQueue eq;
    EventId id = eq.schedule(10, []() {});
    eq.run();
    eq.deschedule(id); // must not crash or affect later events
    bool fired = false;
    eq.schedule(20, [&]() { fired = true; });
    eq.run();
    EXPECT_TRUE(fired);
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

TEST(EventQueue, FifoSurvivesSlotReuseAndDeschedule)
{
    // Cancelled and fired events free their callback slots for reuse;
    // events parked in recycled slots must still run after every
    // earlier-scheduled event at the same (tick, priority).
    EventQueue eq;
    std::vector<int> order;
    auto record = [&order](int i) {
        return [&order, i]() { order.push_back(i); };
    };
    std::vector<EventId> ids;
    for (int i = 0; i < 8; ++i)
        ids.push_back(eq.schedule(10, record(i)));
    eq.deschedule(ids[1]);
    eq.deschedule(ids[3]);
    for (int i = 8; i < 12; ++i)
        eq.schedule(10, record(i));
    eq.schedule(5, [&]() {
        for (int i = 12; i < 14; ++i)
            eq.schedule(10, record(i));
    });
    eq.run();
    EXPECT_EQ(order,
              (std::vector<int>{0, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}));
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
