/**
 * @file
 * Unit tests for the charge-state battery (src/power/battery.hh): the
 * capacitor energy window, the exact energy-as-state round-trip that
 * power-trace crash budgets depend on, threshold semantics, and the
 * power-integration step.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "power/battery.hh"

using namespace bbb;

TEST(BatterySpec, UsableEnergyIsTheCapacitorWindow)
{
    BatterySpec spec;
    spec.capacitance_f = 2e-6;
    spec.max_voltage_v = 5.0;
    spec.min_voltage_v = 1.0;
    // C/2 * (Vmax^2 - Vmin^2) = 1e-6 * 24.
    EXPECT_DOUBLE_EQ(spec.capacityJ(), 24e-6);
}

TEST(BatterySpec, FromCapacityRoundTripsTheCapacity)
{
    for (double j : {0.5e-6, 50e-6, 1e-3}) {
        BatterySpec spec = BatterySpec::fromCapacityJ(j);
        EXPECT_DOUBLE_EQ(spec.capacityJ(), j) << "capacity " << j;
    }
}

TEST(Battery, StoredEnergyRoundTripsExactly)
{
    // Energy IS the state variable: setStored must read back bit-equal,
    // so the charge a power round hands the crash drain is exact.
    Battery b(BatterySpec::fromCapacityJ(4e-6));
    const double stored[] = {0.7583296e-6, 1.5166592e-6, 3.9999999e-6};
    for (double j : stored) {
        b.setStored(j);
        EXPECT_EQ(b.energy_stored(), j) << "stored " << j;
    }
}

TEST(Battery, VoltageDerivesFromEnergy)
{
    BatterySpec spec;
    Battery b(spec);
    EXPECT_DOUBLE_EQ(b.voltage(), spec.max_voltage_v);
    b.setStored(0.0);
    EXPECT_DOUBLE_EQ(b.voltage(), spec.min_voltage_v);
    b.setStored(b.maximum_energy_stored() / 2.0);
    double mid = std::sqrt(spec.min_voltage_v * spec.min_voltage_v +
                           2.0 * b.energy_stored() / spec.capacitance_f);
    EXPECT_DOUBLE_EQ(b.voltage(), mid);
}

TEST(Battery, ThresholdsFollowTheSpecFractions)
{
    Battery b(BatterySpec::fromCapacityJ(100e-6));
    EXPECT_DOUBLE_EQ(b.warningThresholdJ(), 25e-6);
    EXPECT_DOUBLE_EQ(b.powerOnThresholdJ(), 50e-6);
    EXPECT_FALSE(b.warning());
    EXPECT_TRUE(b.canPowerOn());
    b.setStored(30e-6);
    EXPECT_FALSE(b.warning());
    EXPECT_FALSE(b.canPowerOn());
    b.setStored(25e-6);
    EXPECT_TRUE(b.warning());
    b.consume(30e-6); // clamped at empty
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(b.energy_stored(), 0.0);
}

TEST(Battery, ConsumeHarvestClampToTheWindow)
{
    Battery b(BatterySpec::fromCapacityJ(10e-6));
    b.consume(3e-6);
    EXPECT_DOUBLE_EQ(b.energy_stored(), 7e-6);
    b.harvest(100e-6);
    EXPECT_DOUBLE_EQ(b.energy_stored(), 10e-6);
}

TEST(Battery, AdvanceIntegratesNetPower)
{
    BatterySpec spec = BatterySpec::fromCapacityJ(1.0);
    spec.initial_soc = 0.5;
    Battery b(spec);
    // Full supply, machine off: pure charging at charge_w.
    b.advance(0.1, 1.0, 0.0);
    EXPECT_DOUBLE_EQ(b.energy_stored(), 0.5 + 0.1 * spec.charge_w);
    // Dead supply, full load: pure draining at activity_w.
    double before = b.energy_stored();
    b.advance(0.25, 0.0, 1.0);
    EXPECT_DOUBLE_EQ(b.energy_stored(), before - 0.25 * spec.activity_w);
    // Brownout at the breakeven supply (activity_w / charge_w): flat.
    before = b.energy_stored();
    b.advance(0.5, spec.activity_w / spec.charge_w, 1.0);
    EXPECT_DOUBLE_EQ(b.energy_stored(), before);
}

TEST(Battery, DefaultBreakevenSupplyIsAboveUnderVoltage)
{
    // The stock brownout regime exists: there are supply levels the
    // machine runs at (>= uv_supply) where the battery still discharges
    // (< activity_w / charge_w).
    BatterySpec spec;
    EXPECT_LT(spec.uv_supply, spec.activity_w / spec.charge_w);
}
