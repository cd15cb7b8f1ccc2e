/**
 * @file
 * Fixed-capacity slot pool threaded by an intrusive insertion-order list,
 * shared by the bbPB slabs (core/bbpb.hh), the memory controller's
 * write-pending queue (mem/mem_ctrl.hh) and the per-core store buffer
 * (cpu/store_buffer.hh).
 *
 * All three hold a bounded set of entries that leave in any order (drain
 * policies, out-of-order retirements) but must also be walked oldest
 * first (FCFS drains, crash handover). The pool allocates its slots once
 * at construction; live slots form a doubly-linked list in insertion
 * order and free slots chain through the same links, so inserting,
 * removing anywhere, and walking never touch the heap. Slot indices are
 * stable while a slot is live, which lets an owner key a block index
 * (sim/block_table.hh) or an event by slot.
 */

#ifndef BBB_SIM_SLOT_FIFO_HH
#define BBB_SIM_SLOT_FIFO_HH

#include <cstdint>
#include <vector>

#include "sim/logging.hh"

namespace bbb
{

/** Fixed pool of @p Item slots in insertion order (see file comment). */
template <typename Item>
class SlotFifo
{
  public:
    /** Slot index marking "no slot" (list ends, empty free list). */
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    explicit SlotFifo(std::size_t capacity) : _nodes(capacity) { clear(); }

    std::size_t size() const { return _size; }
    std::size_t capacity() const { return _nodes.size(); }
    bool full() const { return _free == kNil; }

    /** Oldest live slot, or kNil when empty. */
    std::uint32_t head() const { return _head; }

    /** Newest live slot, or kNil when empty. */
    std::uint32_t tail() const { return _tail; }

    /** Live slot inserted after @p slot, or kNil. */
    std::uint32_t next(std::uint32_t slot) const { return _nodes[slot].next; }

    /** Live slot inserted before @p slot, or kNil. */
    std::uint32_t prev(std::uint32_t slot) const { return _nodes[slot].prev; }

    Item &operator[](std::uint32_t slot) { return _nodes[slot].item; }
    const Item &
    operator[](std::uint32_t slot) const
    {
        return _nodes[slot].item;
    }

    /** Take a free slot and append it as the newest. The pool must not
     *  be full; the slot's item keeps whatever it last held. */
    std::uint32_t
    pushBack()
    {
        std::uint32_t s = _free;
        BBB_ASSERT(s != kNil, "slot pool full");
        Node &n = _nodes[s];
        _free = n.next;
        n.prev = _tail;
        n.next = kNil;
        if (_tail != kNil)
            _nodes[_tail].next = s;
        else
            _head = s;
        _tail = s;
        ++_size;
        return s;
    }

    /** Unlink live slot @p slot, wherever it sits, and free it. */
    void
    remove(std::uint32_t slot)
    {
        Node &n = _nodes[slot];
        if (n.prev != kNil)
            _nodes[n.prev].next = n.next;
        else
            _head = n.next;
        if (n.next != kNil)
            _nodes[n.next].prev = n.prev;
        else
            _tail = n.prev;
        n.next = _free;
        _free = slot;
        --_size;
    }

    /** Free every slot and reset its item; the free list hands slots
     *  out lowest index first. */
    void
    clear()
    {
        _head = _tail = kNil;
        _free = kNil;
        for (std::uint32_t s = static_cast<std::uint32_t>(_nodes.size());
             s-- > 0;) {
            _nodes[s].item = Item{};
            _nodes[s].next = _free;
            _free = s;
        }
        _size = 0;
    }

  private:
    struct Node
    {
        Item item{};
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
    };

    std::vector<Node> _nodes;
    std::uint32_t _head = kNil;
    std::uint32_t _tail = kNil;
    std::uint32_t _free = kNil;
    std::size_t _size = 0;
};

} // namespace bbb

#endif // BBB_SIM_SLOT_FIFO_HH
