#include "energy/energy_model.hh"

#include <cmath>

#include "sim/config.hh"
#include "sim/logging.hh"

namespace bbb
{

const char *
batteryTechName(BatteryTech t)
{
    switch (t) {
      case BatteryTech::SuperCap:
        return "SuperCap";
      case BatteryTech::LiThin:
        return "Li-thin";
    }
    return "unknown";
}

double
EnergyConstants::densityJPerCm3(BatteryTech t)
{
    // Wh/cm^3 -> J/cm^3 (x3600).
    switch (t) {
      case BatteryTech::SuperCap:
        return 1e-4 * 3600.0;
      case BatteryTech::LiThin:
        return 1e-2 * 3600.0;
    }
    panic("unknown battery technology");
}

PlatformSpec
simulatedPlatform(const SystemConfig &cfg)
{
    PlatformSpec p;
    p.name = "simulated";
    p.cores = cfg.num_cores;
    p.l1_total_bytes = cfg.num_cores * cfg.l1d.size_bytes;
    p.l2_total_bytes = cfg.llc.size_bytes;
    p.l3_total_bytes = 0;
    p.mem_channels = cfg.nvmm.channels;
    p.core_area_mm2 = 2.61;
    return p;
}

std::uint64_t
DrainCostModel::bbbBytes(unsigned bbpb_entries) const
{
    return static_cast<std::uint64_t>(_p.cores) * bbpb_entries * kBlockSize;
}

double
DrainCostModel::drainEnergyJ(std::uint64_t l1_bytes, std::uint64_t l2_bytes,
                             std::uint64_t l3_bytes) const
{
    double e = 0.0;
    e += static_cast<double>(l1_bytes) *
         (_c.sram_access_j_per_byte + _c.l1_to_nvmm_j_per_byte);
    e += static_cast<double>(l2_bytes) *
         (_c.sram_access_j_per_byte + _c.l2_to_nvmm_j_per_byte);
    e += static_cast<double>(l3_bytes) *
         (_c.sram_access_j_per_byte + _c.l2_to_nvmm_j_per_byte);
    return e;
}

double
DrainCostModel::eadrDrainEnergyJ(double dirty_fraction) const
{
    return dirty_fraction * drainEnergyJ(_p.l1_total_bytes,
                                         _p.l2_total_bytes,
                                         _p.l3_total_bytes);
}

double
DrainCostModel::bbbDrainEnergyJ(unsigned bbpb_entries) const
{
    // bbPB cells are L1-adjacent SRAM; draining costs the L1 path.
    return drainEnergyJ(bbbBytes(bbpb_entries), 0, 0);
}

double
DrainCostModel::bbbCrashBudgetJ(unsigned bbpb_entries,
                                unsigned wpq_entries) const
{
    // The WPQ sits at the memory controller; moving its blocks to media
    // costs the L2/L3->NVMM rate (the closest Table VI figure for data
    // already past the core-side SRAM).
    return drainEnergyJ(bbbBytes(bbpb_entries),
                        static_cast<std::uint64_t>(wpq_entries) *
                            kBlockSize,
                        0);
}

double
DrainCostModel::eadrDrainTimeS(double dirty_fraction) const
{
    double bytes = dirty_fraction *
                   static_cast<double>(_p.totalCacheBytes());
    return bytes / (_c.channel_write_bw * _p.mem_channels);
}

double
DrainCostModel::bbbDrainTimeS(unsigned bbpb_entries) const
{
    return static_cast<double>(bbbBytes(bbpb_entries)) /
           (_c.channel_write_bw * _p.mem_channels);
}

double
DrainCostModel::batteryVolumeMm3(double energy_j, BatteryTech t) const
{
    double cm3 = energy_j * _c.provision_margin /
                 EnergyConstants::densityJPerCm3(t);
    return cm3 * 1000.0; // cm^3 -> mm^3
}

double
DrainCostModel::eadrBatteryVolumeMm3(BatteryTech t) const
{
    // Provision for the worst case: every cache block dirty (missing even
    // one dirty block breaks recovery, Section IV-C).
    return batteryVolumeMm3(drainEnergyJ(_p.l1_total_bytes,
                                         _p.l2_total_bytes,
                                         _p.l3_total_bytes),
                            t);
}

double
DrainCostModel::bbbBatteryVolumeMm3(BatteryTech t,
                                    unsigned bbpb_entries) const
{
    return batteryVolumeMm3(bbbDrainEnergyJ(bbpb_entries), t);
}

double
DrainCostModel::footprintAreaMm2(double volume_mm3)
{
    // Cubic battery: area of one face.
    double side = std::cbrt(volume_mm3);
    return side * side;
}

double
DrainCostModel::areaRatioToCore(double volume_mm3) const
{
    return footprintAreaMm2(volume_mm3) / _p.core_area_mm2;
}

} // namespace bbb
