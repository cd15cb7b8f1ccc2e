/**
 * @file
 * Charge-state battery model for intermittent-power campaigns.
 *
 * The flush-on-fail battery stops being a fixed Joule constant
 * (DrainCostModel::bbbCrashBudgetJ) and becomes a capacitor with live
 * charge state, the shape used by the eh-sim backup/restore schemes
 * (SNIPPETS.md): a capacitance between a maximum and a minimum (cutoff)
 * voltage, `energy_stored()` thresholds for the low-charge warning and
 * the power-on gate, charging while the supply is up and spending on
 * both crash drains and activity.
 *
 * The usable energy above the cutoff voltage is the state variable
 * (voltage is derived: V = sqrt(Vmin^2 + 2E/C)), so `setStored(j)`
 * followed by `energy_stored()` round-trips exactly: the charge a
 * power-trace round hands the crash drain as its Joule budget is the
 * charge the battery holds, bit for bit.
 *
 * Charging is power-based (charge_w scaled by the supply level), not an
 * RC exponential, matching the eh-sim capacitor's constant-current
 * simplification; activity draw is a constant abstraction of the
 * machine's supplement draw during brownouts, not a feedback from the
 * simulated workload.
 */

#ifndef BBB_POWER_BATTERY_HH
#define BBB_POWER_BATTERY_HH

namespace bbb
{

/** Electrical description of one flush-on-fail battery. */
struct BatterySpec
{
    /** Capacitance (F). Usable energy = C/2 * (Vmax^2 - Vmin^2). */
    double capacitance_f = 1e-6;
    /** Fully-charged voltage (V). */
    double max_voltage_v = 5.0;
    /** Cutoff voltage (V): stored energy below it is unusable. */
    double min_voltage_v = 1.0;

    /** Charging power drawn from a full-level supply (W). */
    double charge_w = 1.0;
    /** Machine supplement draw at full load while running (W). */
    double activity_w = 0.4;

    /** Initial state of charge as a fraction of usable capacity. */
    double initial_soc = 1.0;
    /** Low-charge warning threshold (fraction of usable capacity). */
    double warning_soc = 0.25;
    /** Power-on (resume) gate after an outage (fraction). */
    double power_on_soc = 0.5;

    /** Supply level below which the machine cannot run (under-voltage). */
    double uv_supply = 0.25;

    /** Usable energy between Vmin and Vmax (J). */
    double capacityJ() const;

    /**
     * Spec sized to hold @p capacity_j (> 0) usable Joules at the
     * default voltages (capacitance derived).
     */
    static BatterySpec fromCapacityJ(double capacity_j);
};

/** A capacitor with live charge state. */
class Battery
{
  public:
    explicit Battery(const BatterySpec &spec);

    const BatterySpec &spec() const { return _spec; }

    /** Usable energy above the cutoff voltage (J). */
    double energy_stored() const { return _energy_j; }
    /** Usable energy when fully charged (J). */
    double maximum_energy_stored() const { return _capacity_j; }
    /** Terminal voltage derived from the stored energy (V). */
    double voltage() const;

    /** Low-charge warning threshold in Joules. */
    double warningThresholdJ() const;
    /** Power-on (resume) threshold in Joules. */
    double powerOnThresholdJ() const;

    /** True when the charge has fallen to the warning threshold. */
    bool warning() const { return _energy_j <= warningThresholdJ(); }
    /** True when the charge clears the power-on gate. */
    bool canPowerOn() const { return _energy_j >= powerOnThresholdJ(); }
    /** True when no usable energy remains (V at the cutoff). */
    bool empty() const { return _energy_j <= 0.0; }

    /** Spend @p j Joules (crash drain or activity), clamped at empty. */
    void consume(double j);
    /** Add @p j harvested Joules, clamped at capacity. */
    void harvest(double j);
    /** Set the stored usable energy directly (clamped to capacity). */
    void setStored(double j);

    /**
     * Integrate @p dt_s seconds at supply level @p supply in [0, 1] and
     * machine load @p load in [0, 1] (0 = machine off): net power is
     * charge_w * supply - activity_w * load, clamped to the capacity
     * window.
     */
    void advance(double dt_s, double supply, double load);

  private:
    BatterySpec _spec;
    double _capacity_j;
    double _energy_j;
};

} // namespace bbb

#endif // BBB_POWER_BATTERY_HH
