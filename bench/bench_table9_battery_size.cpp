/**
 * @file
 * Table IX reproduction: energy-source volume (mm^3) provisioned for the
 * worst-case drain (all cache blocks dirty for eADR; full 32-entry bbPBs
 * for BBB), for super-capacitor and lithium thin-film technologies, plus
 * the footprint of a cubic battery as a ratio of a 2.61 mm^2 mobile core.
 *
 * Paper values (mm^3): mobile eADR 2.9e3 / 30, BBB 4.1 / 0.04;
 * server eADR 34e3 / 300, BBB 21.6 / 0.21. Area ratios: eADR ~77x / 3.6x
 * (mobile) and ~404x / 18.7x (server); BBB 97.2% / 4.5% (mobile) and
 * 296% / 13.7% (server).
 */

#include <cstdio>

#include "bench_util.hh"
#include "energy/energy_model.hh"

using namespace bbb;

namespace
{

void
rows(const PlatformSpec &platform, BenchReport &rep)
{
    DrainCostModel model(platform);
    for (bool bbb : {false, true}) {
        for (BatteryTech t : {BatteryTech::SuperCap, BatteryTech::LiThin}) {
            double vol = bbb ? model.bbbBatteryVolumeMm3(t, 32)
                             : model.eadrBatteryVolumeMm3(t);
            std::printf("%-8s %-5s %-9s %14.3f %17.1f%%\n",
                        platform.name.c_str(), bbb ? "BBB" : "eADR",
                        batteryTechName(t), vol,
                        model.areaRatioToCore(vol) * 100.0);
            std::string key = platform.name;
            key += bbb ? ".bbb." : ".eadr.";
            key += batteryTechName(t);
            rep.measured().setReal(key + ".volume_mm3", vol);
            rep.measured().setReal(key + ".area_ratio",
                                   model.areaRatioToCore(vol));
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    // Analytic bench: no simulation, but it follows the same CLI
    // conventions as the sim benches so campaign scripts can pass one
    // flag set everywhere (--strict-args validates, --jobs is ignored).
    bbbench::jobsArg(argc, argv);

    BenchReport rep("table9_battery_size");
    rep.setConfig("bbpb_entries", std::uint64_t{32});
    rep.paperRef("mobile.eadr.SuperCap.volume_mm3", 2.9e3);
    rep.paperRef("mobile.eadr.Li-thin.volume_mm3", 30.0);
    rep.paperRef("mobile.bbb.SuperCap.volume_mm3", 4.1);
    rep.paperRef("mobile.bbb.Li-thin.volume_mm3", 0.04);
    rep.paperRef("server.eadr.SuperCap.volume_mm3", 34e3);
    rep.paperRef("server.eadr.Li-thin.volume_mm3", 300.0);
    rep.paperRef("server.bbb.SuperCap.volume_mm3", 21.6);
    rep.paperRef("server.bbb.Li-thin.volume_mm3", 0.21);

    bbbench::banner("Table IX: battery volume and footprint-to-core ratio "
                    "(worst-case provisioning)");
    std::printf("%-8s %-5s %-9s %14s %18s\n", "system", "scheme", "tech",
                "volume (mm^3)", "area/core (%)");
    rows(mobilePlatform(), rep);
    rows(serverPlatform(), rep);
    std::printf("\nPaper: mobile eADR 2.9e3/30 mm^3 (77x/3.6x core), "
                "BBB 4.1/0.04 mm^3 (97.2%%/4.5%%);\n"
                "       server eADR 34e3/300 mm^3 (404x/18.7x core), "
                "BBB 21.6/0.21 mm^3 (296%%/13.7%%).\n"
                "Densities: SuperCap 1e-4 Wh/cm^3, Li-thin 1e-2 Wh/cm^3; "
                "10x provisioning margin.\n");
    rep.emitIfRequested(bbbench::jsonPathArg(argc, argv));
    return 0;
}
