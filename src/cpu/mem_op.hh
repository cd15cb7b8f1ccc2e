/**
 * @file
 * Memory operation descriptors exchanged between a workload fiber and its
 * core model.
 */

#ifndef BBB_CPU_MEM_OP_HH
#define BBB_CPU_MEM_OP_HH

#include <cstdint>

#include "sim/types.hh"

namespace bbb
{

/** Kinds of operations a workload thread can issue. */
enum class OpKind
{
    None,
    Load,
    Store,
    /** clwb-style writeback of one block (explicit persistency). */
    Flush,
    /** sfence-style persist barrier: wait for prior stores/flushes. */
    Fence,
    /** Non-memory computation lasting a number of core cycles. */
    Advance,
};

/** A pending operation from a workload fiber. */
struct MemOp
{
    OpKind kind = OpKind::None;
    Addr addr = kBadAddr;
    unsigned size = 0;
    /** Store payload / load result (ops are at most 8 bytes). */
    std::uint64_t data = 0;
    /** Advance duration in cycles. */
    std::uint64_t cycles = 0;
};

} // namespace bbb

#endif // BBB_CPU_MEM_OP_HH
