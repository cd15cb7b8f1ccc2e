/**
 * @file
 * Table I / Section II motivation: the cost of strict persistency on an
 * ADR/PMEM machine (clwb + sfence after every persisting store) versus
 * BBB, which provides the same strict-persistency semantics for free.
 *
 * Also reports the annotated (epoch-style, programmer-placed barriers)
 * PMEM variant, and the unsafe no-barrier baseline that gives up crash
 * consistency. The paper does not publish absolute numbers for this
 * comparison — it motivates BBB qualitatively ("strict pers. penalty:
 * PMEM high, BBB low") — so this bench validates the ordering:
 * unsafe ~= eADR ~= BBB-32 << PMEM-annotated < PMEM-strict.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"

using namespace bbb;

int
main(int argc, char **argv)
{
    bool fast = bbbench::fastMode(argc, argv);
    unsigned jobs = bbbench::jobsArg(argc, argv);
    std::string json = bbbench::jsonPathArg(argc, argv);
    WorkloadParams params = bbbench::shapedParams(fast, 4000, 100000);

    BenchReport rep("pmem_strict");
    rep.setConfig("fast", fast);
    rep.setConfig("ops_per_thread", std::uint64_t{params.ops_per_thread});

    auto workloads = bbbench::paperWorkloads();
    SystemConfig strict_cfg = benchConfig(PersistMode::AdrPmem);
    strict_cfg.pmem_auto_strict = true;
    std::vector<ExperimentSpec> specs;
    for (const auto &name : workloads) {
        specs.push_back({benchConfig(PersistMode::Eadr), name, params});
        specs.push_back({benchConfig(PersistMode::AdrUnsafe), name,
                         params});
        specs.push_back(
            {benchConfig(PersistMode::BbbMemSide, 32), name, params});
        specs.push_back({benchConfig(PersistMode::AdrPmem), name, params});
        specs.push_back({strict_cfg, name, params});
    }
    std::vector<ExperimentResult> results =
        bbbench::runGrid(specs, jobs);

    bbbench::banner("Table I ablation: strict-persistency penalty, "
                    "PMEM flush+fence vs BBB (time normalized to eADR)");
    std::printf("%-10s | %10s %10s %12s %12s\n", "workload", "unsafe",
                "BBB-32", "pmem-epoch", "pmem-strict");

    std::vector<double> bbb, epoch, strict;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const std::string &name = workloads[w];
        const ExperimentResult &eadr = results[w * 5];
        const ExperimentResult &unsafe = results[w * 5 + 1];
        const ExperimentResult &b32 = results[w * 5 + 2];
        const ExperimentResult &pe = results[w * 5 + 3];
        const ExperimentResult &ps = results[w * 5 + 4];

        double base = double(eadr.exec_ticks);
        double tu = unsafe.exec_ticks / base;
        double tb = b32.exec_ticks / base;
        double te = pe.exec_ticks / base;
        double ts = ps.exec_ticks / base;
        bbb.push_back(tb);
        epoch.push_back(te);
        strict.push_back(ts);
        std::printf("%-10s | %10.3f %10.3f %12.3f %12.3f\n", name.c_str(),
                    tu, tb, te, ts);
        rep.measured().setReal("exec_time_x.unsafe." + name, tu);
        rep.measured().setReal("exec_time_x.bbb32." + name, tb);
        rep.measured().setReal("exec_time_x.pmem_epoch." + name, te);
        rep.measured().setReal("exec_time_x.pmem_strict." + name, ts);
        rep.addExperiment(name + "/eadr", eadr.metrics);
        rep.addExperiment(name + "/adr-unsafe", unsafe.metrics);
        rep.addExperiment(name + "/bbb-mem", b32.metrics);
        rep.addExperiment(name + "/pmem-epoch", pe.metrics);
        rep.addExperiment(name + "/pmem-strict", ps.metrics);
    }
    std::printf("%-10s | %10.3f %10.3f %12.3f %12.3f\n", "geomean", 1.0,
                bbbench::geomean(bbb), bbbench::geomean(epoch),
                bbbench::geomean(strict));
    rep.measured().setReal("exec_time_x.bbb32.geomean",
                           bbbench::geomean(bbb));
    rep.measured().setReal("exec_time_x.pmem_epoch.geomean",
                           bbbench::geomean(epoch));
    rep.measured().setReal("exec_time_x.pmem_strict.geomean",
                           bbbench::geomean(strict));
    std::printf("\nExpected ordering: BBB pays ~nothing for strict "
                "persistency; PMEM pays for every flush+fence.\n");
    rep.emitIfRequested(json);
    return 0;
}
