/**
 * @file
 * Pins what recovery writes. For every workload class, one-round crashes
 * (the lifetime campaign's point-crash shape) at fixed crash ticks, under
 * an unsafe and a safe persistency mode and every preset fault plan,
 * recover the raw post-crash image, and recover a copy of it with one
 * deterministic scribble over its live heap (garbage words, nulls and
 * pointers back into the heap, so torn, dangling and aliased objects all
 * occur). Each recovered image's fingerprint and the outcome's repairs,
 * dropped, normalized and frontiers fold into one digest per workload,
 * asserted against recorded values together with the readable totals.
 *
 * The committed report baselines only cover recovery for some workloads
 * (hashmap and btree in the fault baseline; hashmap, skiplist and
 * linkedlist in the benchmark goldens). This test covers every walk, so
 * a change to any workload's recovery that moves a single repair write,
 * drop count or allocator frontier shows up here.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <ostream>

#include "api/system.hh"
#include "sim/rng.hh"
#include "fault/fault_plan.hh"
#include "recover/recovery_manager.hh"
#include "workloads/workload.hh"

using namespace bbb;

namespace
{

SystemConfig
pinCfg(PersistMode mode)
{
    SystemConfig c;
    c.num_cores = 2;
    c.l1d.size_bytes = 4_KiB;
    c.llc.size_bytes = 16_KiB;
    c.dram.size_bytes = 64_MiB;
    c.nvmm.size_bytes = 64_MiB;
    c.bbpb.entries = 8;
    c.mode = mode;
    c.seed = 9;
    return c;
}

WorkloadParams
pinParams()
{
    WorkloadParams p;
    p.ops_per_thread = 150;
    p.initial_elements = 40;
    p.array_elements = 1 << 10;
    return p;
}

/** FNV-1a step over one 64-bit word. */
std::uint64_t
fold(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

const Tick kCrashTicks[] = {nsToTicks(2000), nsToTicks(6000),
                           nsToTicks(15000), nsToTicks(40000),
                           nsToTicks(90000)};

struct PinTotals
{
    std::uint64_t digest = 0xcbf29ce484222325ull;
    std::uint64_t repairs = 0;
    std::uint64_t dropped = 0;
    std::uint64_t normalized = 0;
    std::uint64_t recoveries = 0;

    void
    add(const BackingStore &image, const RecoverOutcome &out)
    {
        digest = fold(digest, image.fingerprint());
        digest = fold(digest, out.repairs);
        digest = fold(digest, out.dropped);
        digest = fold(digest, out.normalized);
        for (Addr f : out.frontiers)
            digest = fold(digest, f);
        repairs += out.repairs;
        dropped += out.dropped;
        normalized += out.normalized;
        ++recoveries;
    }
};

/**
 * Overwrite eight words at a seeded spot of each arena's live span:
 * random garbage, nulls, and 8-aligned pointers back into the span.
 */
void
scribble(BackingStore &image, const PersistentHeap &heap, std::uint64_t seed)
{
    Rng rng(seed);
    for (unsigned a = 0; a < heap.arenas(); ++a) {
        Addr base = heap.arenaBase(a);
        std::uint64_t live = heap.frontier(a) - base;
        if (live < 64)
            continue;
        Addr at = base + (rng.below(live - 64) & ~7ull);
        for (unsigned w = 0; w < 8; ++w) {
            std::uint64_t v = 0;
            switch (rng.below(3)) {
              case 0:
                v = rng.next();
                break;
              case 1:
                break;
              default:
                v = base + (rng.below(live) & ~7ull);
                break;
            }
            image.write64(at + 8 * w, v);
        }
    }
}

PinTotals
recoverAll(const std::string &workload)
{
    PinTotals t;
    for (PersistMode mode :
         {PersistMode::AdrUnsafe, PersistMode::BbbMemSide}) {
        for (const NamedFaultPlan &np : faultPlanPresets()) {
            for (Tick tick : kCrashTicks) {
                SystemConfig cfg = pinCfg(mode);
                System sys(cfg);
                FaultPlan plan = np.plan;
                plan.fault_seed = 17;
                sys.setFaultPlan(plan);
                auto wl = makeWorkload(workload, pinParams());
                wl->install(sys);
                sys.runAndCrashAt(tick);

                BackingStore raw = sys.image().clone();
                BackingStore scribbled = sys.image().clone();
                scribble(scribbled, sys.heap(), t.recoveries);
                for (BackingStore *image : {&raw, &scribbled}) {
                    RecoveryManager mgr(*image, sys.addrMap(),
                                        cfg.num_cores);
                    RecoverOutcome out = mgr.recover(*wl);
                    EXPECT_TRUE(out.resumable())
                        << workload << " " << persistModeName(mode) << " "
                        << np.name << " tick " << tick << ": "
                        << out.detail;
                    t.add(*image, out);
                }
            }
        }
    }
    return t;
}

struct Pin
{
    const char *workload;
    std::uint64_t digest;
    std::uint64_t repairs;
    std::uint64_t dropped;
    std::uint64_t normalized;
};

// Without this, gtest prints a Pin as its raw bytes, workload pointer
// included, so the listed test names would change with every load
// address.
void
PrintTo(const Pin &pin, std::ostream *os)
{
    *os << pin.workload;
}

class RecoveryPin : public ::testing::TestWithParam<Pin>
{
};

} // namespace

TEST_P(RecoveryPin, RecoverOutputMatchesRecordedValues)
{
    const Pin &pin = GetParam();
    PinTotals t = recoverAll(pin.workload);
    EXPECT_EQ(t.recoveries,
              2 * 2 * faultPlanPresets().size() * std::size(kCrashTicks));
    EXPECT_EQ(t.repairs, pin.repairs) << pin.workload;
    EXPECT_EQ(t.dropped, pin.dropped) << pin.workload;
    EXPECT_EQ(t.normalized, pin.normalized) << pin.workload;
    char got[32];
    std::snprintf(got, sizeof(got), "0x%016llx",
                  static_cast<unsigned long long>(t.digest));
    EXPECT_EQ(t.digest, pin.digest) << pin.workload << " digest " << got;
}

INSTANTIATE_TEST_SUITE_P(
    EveryWalk, RecoveryPin,
    // Recorded before the per-workload walks were merged into one.
    ::testing::Values(Pin{"linkedlist", 0xa7c288ec9b1ed442ull, 68, 68, 0},
                      Pin{"hashmap", 0x356b06e578e56a63ull, 341, 341, 0},
                      Pin{"skiplist", 0xd2ff0b27a33176a3ull, 855, 113, 0},
                      Pin{"ctree", 0x22212041a1ef129bull, 190, 190, 0},
                      Pin{"rtree", 0x2beac12b0084ffa2ull, 573, 573, 7465},
                      Pin{"rtree-spatial", 0xa8c3acb02e295b86ull, 143, 414, 0},
                      Pin{"btree", 0x3fd8afbe5b186edaull, 97, 195, 0},
                      Pin{"mutateC", 0x55714b2ade609e02ull, 253, 253, 0},
                      Pin{"swapNC", 0x4b7d70b54b7751a7ull, 253, 253, 0}),
    [](const auto &param_info) {
        std::string name = param_info.param.workload;
        for (auto &ch : name) {
            if (ch == '-')
                ch = '_';
        }
        return name;
    });
