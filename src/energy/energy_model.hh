/**
 * @file
 * Draining energy/time and battery-sizing model (Section IV-C).
 *
 * Energy constants are the paper's Table VI, distilled from the
 * data-movement measurements of Pandiyan & Wu (IISWC 2014):
 *
 *   - accessing SRAM:             1 pJ/B
 *   - moving L1D/bbPB -> NVMM:    11.839 nJ/B
 *   - moving L2/L3   -> NVMM:     11.228 nJ/B
 *
 * Draining time uses the per-DIMM Optane write bandwidth reported by
 * Izraelevitz et al. (~2.3 GB/s per channel), multiplied by the platform's
 * channel count (at crash time the full bandwidth is available).
 *
 * Battery sizing divides the worst-case drain energy by the volumetric
 * energy density of the storage technology: 1e-4 Wh/cm^3 for
 * super-capacitors, 1e-2 Wh/cm^3 for lithium thin-film. A 10x energy
 * provisioning margin is applied; this margin reproduces the paper's
 * Table IX/X figures exactly and reflects usable-capacity derating.
 */

#ifndef BBB_ENERGY_ENERGY_MODEL_HH
#define BBB_ENERGY_ENERGY_MODEL_HH

#include <cstdint>

#include "energy/platform.hh"
#include "sim/types.hh"

namespace bbb
{

struct SystemConfig;

/** Energy storage technologies considered for flush-on-fail. */
enum class BatteryTech
{
    SuperCap,
    LiThin,
};

/** Printable name. */
const char *batteryTechName(BatteryTech t);

/** Table VI constants and derived per-byte figures. */
struct EnergyConstants
{
    /** SRAM array access energy (J/B). */
    double sram_access_j_per_byte = 1e-12;
    /** Move one byte from L1D (or bbPB) to NVMM (J/B). */
    double l1_to_nvmm_j_per_byte = 11.839e-9;
    /** Move one byte from L2/L3 to NVMM (J/B). */
    double l2_to_nvmm_j_per_byte = 11.228e-9;
    /** NVMM write bandwidth per memory channel (B/s). */
    double channel_write_bw = 2.3e9;
    /** Battery provisioning margin over raw drain energy. */
    double provision_margin = 10.0;

    /** Volumetric energy density (J/cm^3). */
    static double densityJPerCm3(BatteryTech t);

    /** Energy to drain one block from L1D (or bbPB) to NVMM (J). */
    double
    l1BlockJ() const
    {
        return kBlockSize * (sram_access_j_per_byte + l1_to_nvmm_j_per_byte);
    }
};

/**
 * The simulated machine as a cost-model platform: its L1Ds, its LLC as
 * the L2, and its NVMM channels.
 */
PlatformSpec simulatedPlatform(const SystemConfig &cfg);

/** Flush-on-fail cost estimates for eADR and BBB on a platform. */
class DrainCostModel
{
  public:
    explicit DrainCostModel(PlatformSpec platform,
                            EnergyConstants constants = {})
        : _p(std::move(platform)), _c(constants)
    {
    }

    const PlatformSpec &platform() const { return _p; }
    const EnergyConstants &constants() const { return _c; }

    /** Bytes bbPBs hold when full: cores x entries x 64 B. */
    std::uint64_t bbbBytes(unsigned bbpb_entries) const;

    /**
     * Average eADR drain energy (J): only dirty blocks drain. The paper
     * (and Garcia et al.) observe ~44.9% dirty on average.
     */
    double eadrDrainEnergyJ(double dirty_fraction = 0.449) const;

    /** Worst-case BBB drain energy (J): all bbPB entries full. */
    double bbbDrainEnergyJ(unsigned bbpb_entries) const;

    /**
     * Worst-case BBB *crash budget* (J): full bbPBs plus a full WPQ —
     * the whole persistence domain Section III-C sizes the battery for.
     * Fault campaigns undersize batteries relative to this figure.
     */
    double bbbCrashBudgetJ(unsigned bbpb_entries,
                           unsigned wpq_entries) const;

    /** Average eADR drain time (s) over all channels' bandwidth. */
    double eadrDrainTimeS(double dirty_fraction = 0.449) const;

    /** Worst-case BBB drain time (s). */
    double bbbDrainTimeS(unsigned bbpb_entries) const;

    /**
     * Battery volume (mm^3) provisioned for the *worst case* drain
     * (every block dirty for eADR; full buffers for BBB), including the
     * provisioning margin.
     */
    double eadrBatteryVolumeMm3(BatteryTech t) const;
    double bbbBatteryVolumeMm3(BatteryTech t, unsigned bbpb_entries) const;

    /**
     * Footprint area (mm^2) of a cubic battery of the given volume, and
     * its ratio to the reference core area.
     */
    static double footprintAreaMm2(double volume_mm3);
    double areaRatioToCore(double volume_mm3) const;

    /** Energy (J) for draining an arbitrary byte mix (measured drains). */
    double drainEnergyJ(std::uint64_t l1_bytes, std::uint64_t l2_bytes,
                        std::uint64_t l3_bytes) const;

    /** Battery volume (mm^3) for an arbitrary energy (J). */
    double batteryVolumeMm3(double energy_j, BatteryTech t) const;

  private:
    PlatformSpec _p;
    EnergyConstants _c;
};

} // namespace bbb

#endif // BBB_ENERGY_ENERGY_MODEL_HH
