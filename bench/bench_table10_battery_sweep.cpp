/**
 * @file
 * Table X reproduction: battery volume (mm^3) as the bbPB size sweeps
 * from 1 to 1024 entries, for both platforms and both technologies.
 *
 * Paper values (SuperCap, mobile): 0.12, 0.50, 2.02, 4.1, 8.1, 32.3,
 * 129.3 for 1/4/16/32/64/256/1024 entries; server 0.7 ... 689.7.
 */

#include <cstdio>

#include "bench_util.hh"
#include "energy/energy_model.hh"

using namespace bbb;

int
main(int argc, char **argv)
{
    const unsigned sizes[] = {1, 4, 16, 32, 64, 256, 1024};

    // Analytic bench; same CLI conventions as the sim benches (see
    // bench_table9_battery_size.cpp).
    bbbench::jobsArg(argc, argv);

    BenchReport rep("table10_battery_sweep");
    {
        const double paper_sc_mobile[] = {0.12, 0.50, 2.02, 4.1,
                                          8.1, 32.3, 129.3};
        const double paper_sc_server[] = {0.7, 2.7, 10.8, 21.6,
                                          43.1, 172.4, 689.7};
        for (unsigned i = 0; i < 7; ++i) {
            std::string e = ".bbpb" + std::to_string(sizes[i]);
            rep.paperRef("SuperCap.mobile" + e + ".volume_mm3",
                         paper_sc_mobile[i]);
            rep.paperRef("SuperCap.server" + e + ".volume_mm3",
                         paper_sc_server[i]);
        }
    }

    bbbench::banner(
        "Table X: battery volume (mm^3) vs bbPB entries (1..1024)");
    std::printf("%-9s %-8s |", "tech", "system");
    for (unsigned s : sizes)
        std::printf(" %8u", s);
    std::printf("\n");

    for (BatteryTech t : {BatteryTech::SuperCap, BatteryTech::LiThin}) {
        for (const PlatformSpec &p : {mobilePlatform(), serverPlatform()}) {
            DrainCostModel model(p);
            std::printf("%-9s %-8s |", batteryTechName(t), p.name.c_str());
            for (unsigned s : sizes) {
                double vol = model.bbbBatteryVolumeMm3(t, s);
                std::printf(" %8.3f", vol);
                rep.measured().setReal(std::string(batteryTechName(t)) +
                                           "." + p.name + ".bbpb" +
                                           std::to_string(s) +
                                           ".volume_mm3",
                                       vol);
            }
            std::printf("\n");
        }
    }

    std::printf("\nPaper (SuperCap): mobile 0.12 0.50 2.02 4.1 8.1 32.3 "
                "129.3; server 0.7 2.7 10.8 21.6 43.1 172.4 689.7\n"
                "Paper (Li-thin):  mobile 0.001 0.005 0.02 0.04 0.08 0.3 "
                "1.3;  server 0.006 0.026 0.10 0.21 0.43 1.7 6.8\n"
                "Even a 1024-entry bbPB stays 22-49x cheaper than eADR "
                "(Table IX).\n");
    rep.emitIfRequested(bbbench::jsonPathArg(argc, argv));
    return 0;
}
