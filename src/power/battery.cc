#include "power/battery.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace bbb
{

double
BatterySpec::capacityJ() const
{
    return 0.5 * capacitance_f *
           (max_voltage_v * max_voltage_v - min_voltage_v * min_voltage_v);
}

BatterySpec
BatterySpec::fromCapacityJ(double capacity_j)
{
    BatterySpec s;
    double window = s.max_voltage_v * s.max_voltage_v -
                    s.min_voltage_v * s.min_voltage_v;
    s.capacitance_f = 2.0 * capacity_j / window;
    return s;
}

Battery::Battery(const BatterySpec &spec)
    : _spec(spec), _capacity_j(spec.capacityJ())
{
    BBB_ASSERT(_spec.max_voltage_v > _spec.min_voltage_v,
               "battery voltage window is empty");
    BBB_ASSERT(_capacity_j > 0.0, "battery has no usable capacity");
    _energy_j =
        std::clamp(_spec.initial_soc, 0.0, 1.0) * _capacity_j;
}

double
Battery::voltage() const
{
    double vmin2 = _spec.min_voltage_v * _spec.min_voltage_v;
    return std::sqrt(vmin2 + 2.0 * _energy_j / _spec.capacitance_f);
}

double
Battery::warningThresholdJ() const
{
    return _spec.warning_soc * _capacity_j;
}

double
Battery::powerOnThresholdJ() const
{
    return _spec.power_on_soc * _capacity_j;
}

void
Battery::consume(double j)
{
    _energy_j = std::max(0.0, _energy_j - j);
}

void
Battery::harvest(double j)
{
    _energy_j = std::min(_capacity_j, _energy_j + j);
}

void
Battery::setStored(double j)
{
    _energy_j = std::clamp(j, 0.0, _capacity_j);
}

void
Battery::advance(double dt_s, double supply, double load)
{
    double net_w = _spec.charge_w * supply - _spec.activity_w * load;
    _energy_j = std::clamp(_energy_j + net_w * dt_s, 0.0, _capacity_j);
}

} // namespace bbb
