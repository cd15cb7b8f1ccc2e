/**
 * @file
 * Deterministic discrete-event queue driving the whole simulator.
 *
 * Events are callbacks scheduled at an absolute tick with a priority.
 * Events at the same (tick, priority) fire in scheduling (FIFO) order so a
 * run is fully reproducible for a given configuration and seed.
 *
 * The queue is an explicit binary heap of 24-byte trivially copyable keys
 * (tick, id, priority, slot); each key names a slot in a side vector that
 * holds the event's move-only SmallFn callback, with freed slots recycled
 * through a free list. Sifts therefore move keys, never callbacks, and
 * scheduling never heap-allocates for the capture sizes the simulator
 * uses once reserve() has sized the storage. Cancellation is lazy: a
 * cancelled key is marked and skipped, and cancelled keys are compacted
 * away once they outnumber half the heap.
 *
 * tryFireInline() is the kernel's fast path: a caller inside run() whose
 * next event would provably be popped next anyway fires it in place and
 * carries on, with the same clock, ids and executed() as the slow path.
 */

#ifndef BBB_SIM_EVENT_QUEUE_HH
#define BBB_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/logging.hh"
#include "sim/small_fn.hh"
#include "sim/types.hh"

namespace bbb
{

/**
 * Relative ordering of events that fire at the same tick. Lower values run
 * first. These buckets make the memory-system pipeline deterministic: e.g.
 * drains complete before new core ops observe buffer occupancy.
 */
enum class EventPriority : int
{
    DrainComplete = 0,
    MemResponse = 1,
    CacheOp = 2,
    CoreOp = 3,
    Default = 4,
    Stats = 5,
};

/** Handle used to cancel a scheduled event. */
using EventId = std::uint64_t;

/** Discrete-event queue with cancellation and deterministic ordering. */
class EventQueue
{
  public:
    using Callback = SmallFn;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p cb at absolute tick @p when.
     * @return an id usable with deschedule().
     */
    EventId
    schedule(Tick when, Callback cb,
             EventPriority prio = EventPriority::Default)
    {
        BBB_ASSERT(when >= _now, "scheduling into the past (%llu < %llu)",
                   (unsigned long long)when, (unsigned long long)_now);
        EventId id = _nextId++;
        _heap.push_back(Key{when, id, static_cast<std::uint32_t>(prio),
                            parkCallback(std::move(cb))});
        siftUp(_heap.size() - 1);
        return id;
    }

    /** Schedule @p cb @p delta ticks from now. */
    EventId
    scheduleIn(Tick delta, Callback cb,
               EventPriority prio = EventPriority::Default)
    {
        return schedule(_now + delta, std::move(cb), prio);
    }

    /**
     * Fire an event at (@p when, @p prio) in place, without queueing it,
     * when it is provably the next event run() would pop: the caller is
     * inside run(), @p when is within run()'s limit, and everything
     * queued sorts strictly after it (an earlier tick, or the same tick
     * at lower-or-equal priority, goes first). On success the clock,
     * the id sequence and executed() advance exactly as if the event had
     * been scheduled and popped, and the caller runs its continuation
     * directly. step() never fires in place.
     */
    bool
    tryFireInline(Tick when, EventPriority prio)
    {
        if (!_inRun || when > _runLimit)
            return false;
        const Key next{when, _nextId, static_cast<std::uint32_t>(prio), 0};
        if (!_heap.empty() && !before(next, _heap.front()))
            return false;
        BBB_ASSERT(when >= _now, "firing into the past");
        _now = when;
        ++_nextId;
        ++_executed;
        ++_inlined;
        return true;
    }

    /**
     * Cancel a previously scheduled event. Safe if already fired.
     *
     * Cancellation is lazy: the key stays heap-ordered (its callback and
     * slot are released immediately) and is skipped when popped. Once
     * cancelled keys outnumber half the heap they are compacted away, so
     * a deschedule-heavy caller cannot grow the heap without bound. The
     * linear id scan is fine: the simulator core never deschedules on the
     * hot path.
     */
    void
    deschedule(EventId id)
    {
        for (Key &k : _heap) {
            if (k.id != id)
                continue;
            if (k.slot != kCancelled) {
                _slots[k.slot].reset();
                _free.push_back(k.slot);
                k.slot = kCancelled;
                ++_cancelled;
                if (_cancelled * 2 > _heap.size())
                    purgeCancelled();
            }
            return;
        }
    }

    /** Number of events still scheduled, excluding descheduled ones. */
    std::size_t pending() const { return _heap.size() - _cancelled; }

    /** True if no runnable events remain. */
    bool empty() const { return pending() == 0; }

    /**
     * Run events until the queue is empty or @p maxTick is passed.
     * Events may fire in place (tryFireInline) while it runs.
     * @return the tick of the last event executed.
     */
    Tick
    run(Tick maxTick = kMaxTick)
    {
        const bool outerInRun = _inRun;
        const Tick outerLimit = _runLimit;
        _inRun = true;
        _runLimit = maxTick;
        while (!_heap.empty() && _heap.front().when <= maxTick)
            fireTop();
        _inRun = outerInRun;
        _runLimit = outerLimit;
        return _now;
    }

    /** Run a single event; returns false if none runnable. */
    bool
    step()
    {
        const bool outerInRun = _inRun;
        _inRun = false;
        bool fired = false;
        while (!fired && !_heap.empty())
            fired = fireTop();
        _inRun = outerInRun;
        return fired;
    }

    /** Total events executed so far, in place or popped. */
    std::uint64_t executed() const { return _executed; }

    /** Events among executed() that fired in place (tryFireInline). */
    std::uint64_t inlined() const { return _inlined; }

    /** Pre-size the heap and callback slots for @p n simultaneous
     *  events so neither reallocates mid-run (see
     *  SystemConfig::eventCapacityHint). */
    void
    reserve(std::size_t n)
    {
        _heap.reserve(n);
        _slots.reserve(n);
        _free.reserve(n);
    }

    /** Heap storage currently reserved (test hook). */
    std::size_t heapCapacity() const { return _heap.capacity(); }

  private:
    /** Heap key: trivially copyable, so sifts never touch a callback. */
    struct Key
    {
        Tick when;
        EventId id;
        std::uint32_t prio;
        std::uint32_t slot; ///< index into _slots, or kCancelled
    };

    static_assert(std::is_trivially_copyable_v<Key> && sizeof(Key) == 24);

    static constexpr std::uint32_t kCancelled = ~std::uint32_t{0};

    /** True if @p a fires before @p b (min-heap order). */
    static bool
    before(const Key &a, const Key &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.prio != b.prio)
            return a.prio < b.prio;
        return a.id < b.id;
    }

    /** Store @p cb in a free slot and return its index. */
    std::uint32_t
    parkCallback(Callback cb)
    {
        if (!_free.empty()) {
            std::uint32_t slot = _free.back();
            _free.pop_back();
            _slots[slot] = std::move(cb);
            return slot;
        }
        _slots.push_back(std::move(cb));
        return static_cast<std::uint32_t>(_slots.size() - 1);
    }

    /**
     * Pop the top key and run its event; false if it was cancelled. The
     * callback leaves its slot before it runs, so events it schedules may
     * reuse the slot (or grow the slot vector) safely.
     */
    bool
    fireTop()
    {
        Key k = popTop();
        if (k.slot == kCancelled) {
            --_cancelled;
            return false;
        }
        Callback cb = std::move(_slots[k.slot]);
        _free.push_back(k.slot);
        BBB_ASSERT(k.when >= _now, "event queue went backwards");
        _now = k.when;
        ++_executed;
        cb();
        return true;
    }

    void
    siftUp(std::size_t i)
    {
        Key k = _heap[i];
        while (i > 0) {
            std::size_t parent = (i - 1) / 2;
            if (!before(k, _heap[parent]))
                break;
            _heap[i] = _heap[parent];
            i = parent;
        }
        _heap[i] = k;
    }

    void
    siftDown(std::size_t i)
    {
        const std::size_t n = _heap.size();
        Key k = _heap[i];
        for (;;) {
            std::size_t kid = 2 * i + 1;
            if (kid >= n)
                break;
            if (kid + 1 < n && before(_heap[kid + 1], _heap[kid]))
                ++kid;
            if (!before(_heap[kid], k))
                break;
            _heap[i] = _heap[kid];
            i = kid;
        }
        _heap[i] = k;
    }

    Key
    popTop()
    {
        Key top = _heap.front();
        _heap.front() = _heap.back();
        _heap.pop_back();
        if (!_heap.empty())
            siftDown(0);
        return top;
    }

    /** Drop every cancelled key and restore the heap invariant. Ids are
     *  kept, so FIFO same-(tick, priority) ordering is unaffected. */
    void
    purgeCancelled()
    {
        _heap.erase(std::remove_if(_heap.begin(), _heap.end(),
                                   [](const Key &k) {
                                       return k.slot == kCancelled;
                                   }),
                    _heap.end());
        _cancelled = 0;
        for (std::size_t i = _heap.size() / 2; i-- > 0;)
            siftDown(i);
    }

    std::vector<Key> _heap;
    /** Callbacks of queued events, indexed by Key::slot. */
    std::vector<Callback> _slots;
    /** Slots free for reuse. */
    std::vector<std::uint32_t> _free;
    Tick _now = 0;
    EventId _nextId = 0;
    std::size_t _cancelled = 0;
    std::uint64_t _executed = 0;
    std::uint64_t _inlined = 0;
    /** Set while run() drives the queue: in-place firing is allowed up
     *  to _runLimit. */
    bool _inRun = false;
    Tick _runLimit = 0;
};

} // namespace bbb

#endif // BBB_SIM_EVENT_QUEUE_HH
