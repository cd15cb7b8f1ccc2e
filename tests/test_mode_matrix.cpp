/**
 * @file
 * The full workload x persistency-mode matrix: every registered workload
 * runs to completion under every mode, stays structurally coherent, and
 * (in the safe modes) recovers consistently after an end-of-run crash.
 */

#include <gtest/gtest.h>

#include "api/system.hh"
#include "workloads/workload.hh"

using namespace bbb;

namespace
{

SystemConfig
matrixCfg(PersistMode mode)
{
    SystemConfig cfg;
    cfg.num_cores = 2;
    cfg.l1d.size_bytes = 8_KiB;
    cfg.llc.size_bytes = 32_KiB;
    cfg.dram.size_bytes = 64_MiB;
    cfg.nvmm.size_bytes = 64_MiB;
    cfg.mode = mode;
    return cfg;
}

WorkloadParams
matrixParams()
{
    WorkloadParams p;
    p.ops_per_thread = 120;
    p.initial_elements = 150;
    p.array_elements = 1 << 12;
    return p;
}

} // namespace

class ModeMatrix
    : public ::testing::TestWithParam<std::tuple<std::string, PersistMode>>
{
};

TEST_P(ModeMatrix, RunsCoherentlyAndRecovers)
{
    auto [name, mode] = GetParam();
    System sys(matrixCfg(mode));
    auto wl = makeWorkload(name, matrixParams());
    wl->install(sys);
    Tick end = sys.run();
    EXPECT_GT(end, 0u);
    sys.checkInvariants();

    sys.crashNow();
    RecoveryResult res = wl->checkRecovery(sys.pmemImage());
    if (mode != PersistMode::AdrUnsafe) {
        // Safe modes: everything done before the quiesced end of run is
        // durable and intact.
        EXPECT_TRUE(res.consistent()) << name;
        EXPECT_EQ(res.intact, res.checked) << name;
    } else {
        // Unsafe ADR at a quiesced end of run may still hold dirty state
        // in the caches; reachable-but-torn objects are possible, but the
        // checker itself must terminate with sane counts.
        EXPECT_GE(res.checked, res.intact);
    }
}

TEST_P(ModeMatrix, ExecutionIsDeterministic)
{
    auto [name, mode] = GetParam();
    auto once = [&]() {
        System sys(matrixCfg(mode));
        auto wl = makeWorkload(name, matrixParams());
        wl->install(sys);
        sys.run();
        return std::make_tuple(sys.executionTime(),
                               sys.effectiveNvmmWrites(),
                               sys.eventQueue().executed());
    };
    EXPECT_EQ(once(), once()) << name;
}

INSTANTIATE_TEST_SUITE_P(
    Full, ModeMatrix,
    ::testing::Combine(
        ::testing::Values("rtree", "ctree", "hashmap", "mutateNC",
                          "mutateC", "swapNC", "swapC", "linkedlist",
                          "rtree-spatial", "btree", "skiplist"),
        ::testing::Values(PersistMode::AdrUnsafe, PersistMode::AdrPmem,
                          PersistMode::PmemStrict, PersistMode::Eadr,
                          PersistMode::BbbMemSide,
                          PersistMode::BbbProcSide)),
    [](const auto &param_info) {
        std::string name = std::get<0>(param_info.param);
        name += "_";
        name += persistModeName(std::get<1>(param_info.param));
        for (auto &ch : name) {
            if (ch == '-')
                ch = '_';
        }
        return name;
    });
