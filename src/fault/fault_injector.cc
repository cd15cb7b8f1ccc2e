#include "fault/fault_injector.hh"

#include <cstring>

namespace bbb
{

void
FaultInjector::noteSacrificedBytes(Addr addr, const void *src,
                                   unsigned size, const BlockData &current)
{
    // Store-buffer entries are sub-block writes: the intended content is
    // what the block holds (in the ledger if already damaged, else in
    // media) with these bytes applied on top.
    auto it = _damaged.emplace(blockAlign(addr), current).first;
    std::memcpy(it->second.bytes.data() + blockOffset(addr), src, size);
}

void
FaultInjector::noteDrainedBytes(Addr addr, const void *src, unsigned size)
{
    auto it = _damaged.find(blockAlign(addr));
    if (it != _damaged.end())
        std::memcpy(it->second.bytes.data() + blockOffset(addr), src, size);
}

void
FaultInjector::repairImage(BackingStore &store) const
{
    for (const auto &kv : _damaged)
        store.writeBlock(kv.first, kv.second.bytes.data());
}

} // namespace bbb
