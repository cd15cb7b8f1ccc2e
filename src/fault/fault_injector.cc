#include "fault/fault_injector.hh"

#include <cstring>

#include "mem/media_backend.hh"

namespace bbb
{

MediaWriteOutcome
FaultInjector::performMediaWrite(MediaBackend &media, Addr block,
                                 const BlockData &data)
{
    MediaWriteOutcome out;
    Tick backoff = _plan.media_backoff;
    while (sampleMediaAttemptFails()) {
        if (out.retries >= _plan.media_retries) {
            out.torn = true;
            commitTorn(media, block, data);
            return out;
        }
        ++out.retries;
        noteRetry();
        out.backoff += backoff;
        backoff *= 2;
    }
    media.commitBlock(block, data);
    noteCleanWrite(block);
    return out;
}

void
FaultInjector::commitTorn(MediaBackend &media, Addr block,
                          const BlockData &intended)
{
    media.commitTorn(block, intended, kTornBytes);
    _damaged[block] = intended;
    ++_stats->torn_blocks;
}

void
FaultInjector::noteSacrificedBytes(MediaBackend &media, Addr addr,
                                   const void *src, unsigned size)
{
    // Store-buffer entries are sub-block writes: the intended content is
    // whatever the block holds (in the ledger if already damaged, else in
    // the media image) with these bytes applied on top. Like the crash
    // report, the counter tallies sacrificed items, not distinct blocks.
    Addr block = blockAlign(addr);
    auto it = _damaged.find(block);
    if (it == _damaged.end()) {
        BlockData current;
        media.readBlock(block, current.bytes.data());
        it = _damaged.emplace(block, current).first;
    }
    ++_stats->sacrificed_blocks;
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
