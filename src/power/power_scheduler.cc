#include "power/power_scheduler.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace bbb
{

namespace
{

double
ticksToSeconds(Tick t)
{
    return static_cast<double>(t) * 1e-12; // tick = 1 ps
}

Tick
secondsToTicksCeil(double s)
{
    BBB_ASSERT(s >= 0.0, "negative power-math interval");
    return static_cast<Tick>(std::ceil(s * 1e12));
}

} // namespace

const char *
degradePolicyName(DegradePolicy p)
{
    switch (p) {
      case DegradePolicy::None:
        return "none";
      case DegradePolicy::DrainOldest:
        return "drain-oldest";
      case DegradePolicy::Throttle:
        return "throttle";
      case DegradePolicy::RefuseDirty:
        return "refuse-dirty";
    }
    return nullptr; // past the last policy (sim/names.hh)
}

void
PowerStats::merge(const PowerStats &o)
{
    outages += o.outages;
    brownout_outages += o.brownout_outages;
    brownouts_survived += o.brownouts_survived;
    warnings += o.warnings;
    proactive_drain_blocks += o.proactive_drain_blocks;
    resume_waits += o.resume_waits;
    resume_wait_ticks += o.resume_wait_ticks;
    starved = starved || o.starved;
    energy_harvested_j += o.energy_harvested_j;
    energy_activity_j += o.energy_activity_j;
    energy_drain_j += o.energy_drain_j;
    min_headroom_j = std::min(min_headroom_j, o.min_headroom_j);
}

PowerScheduler::PowerScheduler(const PowerTrace &trace,
                               const BatterySpec &spec)
    : _trace(trace), _battery(spec)
{
    BBB_ASSERT(!_trace.empty(), "PowerScheduler needs a non-empty trace");
}

void
PowerScheduler::pieceAt(Tick t, double *level, Tick *end) const
{
    for (const PowerSegment &s : _trace.segments()) {
        if (t < s.begin) { // in a gap before this segment: supply dead
            *level = 0.0;
            *end = s.begin;
            return;
        }
        if (t < s.end) {
            *level = s.level;
            *end = s.end;
            return;
        }
    }
    *level = 0.0; // past the trace: dead forever
    *end = kMaxTick;
}

bool
PowerScheduler::chargeUntilPowerOn(Tick *start)
{
    const BatterySpec &spec = _battery.spec();
    const Tick entry = _now;
    for (;;) {
        double level;
        Tick end;
        pieceAt(_now, &level, &end);
        if (end == kMaxTick) {
            // Trace over while the machine is down: starved.
            _stats.starved = true;
            return false;
        }
        if (level >= spec.uv_supply && _battery.canPowerOn()) {
            *start = _now;
            break;
        }
        double net_w = spec.charge_w * level; // machine off: charge only
        if (level >= spec.uv_supply && net_w > 0.0) {
            // Supply is usable; only the charge gate is holding us.
            // Solve the exact power-on crossing within this piece.
            double need = _battery.powerOnThresholdJ() -
                          _battery.energy_stored();
            Tick dt = secondsToTicksCeil(need / net_w);
            if (_now + dt < end) {
                _stats.energy_harvested_j += need;
                _battery.setStored(_battery.powerOnThresholdJ());
                _now += dt;
                *start = _now;
                break;
            }
        }
        double dt_s = ticksToSeconds(end - _now);
        _stats.energy_harvested_j += net_w * dt_s;
        _battery.advance(dt_s, level, 0.0);
        _now = end;
    }
    if (_booted_once && _now > entry) {
        ++_stats.resume_waits;
        _stats.resume_wait_ticks += _now - entry;
    }
    return true;
}

bool
PowerScheduler::nextWindow(PowerWindow *w)
{
    *w = PowerWindow{};
    if (!chargeUntilPowerOn(&w->start))
        return false;
    _booted_once = true;

    const BatterySpec &spec = _battery.spec();
    bool warned = false;
    double load = _load;

    auto runPiece = [&](Tick dt, double level) {
        double dt_s = ticksToSeconds(dt);
        _stats.energy_harvested_j += spec.charge_w * level * dt_s;
        _stats.energy_activity_j += spec.activity_w * load * dt_s;
        _battery.advance(dt_s, level, load);
    };
    auto outageAt = [&](Tick t, bool brownout) {
        w->outage = t;
        w->brownout_outage = brownout;
        w->charge_at_outage = brownout ? 0.0 : _battery.energy_stored();
        ++_stats.outages;
        if (brownout)
            ++_stats.brownout_outages;
    };
    auto fireWarning = [&]() {
        warned = true;
        w->has_warning = true;
        w->warning = _now;
        w->charge_at_warning = _battery.energy_stored();
        ++_stats.warnings;
        load = _post_warning_load;
        if (_hook) {
            double spent = _hook(_now, _battery.energy_stored());
            if (spent > 0.0) {
                _stats.energy_drain_j += spent;
                _battery.consume(spent);
            }
        }
    };

    for (;;) {
        double level;
        Tick end;
        pieceAt(_now, &level, &end);
        if (level < spec.uv_supply) {
            // Supply can no longer run the machine (includes gaps and
            // the trace's end): outage with whatever charge is stored.
            outageAt(_now, /*brownout=*/false);
            return true;
        }
        double net_w = spec.charge_w * level - spec.activity_w * load;

        // The low-charge warning fires once per window, on the way down.
        if (!warned && net_w < 0.0) {
            double warn = _battery.warningThresholdJ();
            if (_battery.energy_stored() <= warn) {
                fireWarning();
                continue; // re-evaluate this piece at the throttled load
            }
            double s = (_battery.energy_stored() - warn) / (-net_w);
            Tick dt = secondsToTicksCeil(s);
            if (_now + dt < end) {
                runPiece(dt, level);
                _battery.setStored(warn); // pin the crossing exactly
                _now += dt;
                fireWarning();
                continue;
            }
        }

        // Battery emptying mid-brownout ends the window with no budget.
        if (net_w < 0.0) {
            double s = _battery.energy_stored() / (-net_w);
            Tick dt = secondsToTicksCeil(s);
            if (_now + dt < end) {
                runPiece(dt, level);
                _battery.setStored(0.0);
                _now += dt;
                outageAt(_now, /*brownout=*/true);
                return true;
            }
        }

        // Survive to the end of the piece.
        runPiece(end - _now, level);
        if (net_w < 0.0) {
            ++w->brownouts_survived;
            ++_stats.brownouts_survived;
        }
        _now = end;
    }
}

void
PowerScheduler::noteCrashSpend(double spent_j, bool exhausted,
                               double shortfall_j)
{
    _stats.energy_drain_j += spent_j;
    _battery.consume(spent_j);
    double headroom =
        exhausted ? -shortfall_j : _battery.energy_stored();
    _stats.min_headroom_j = std::min(_stats.min_headroom_j, headroom);
}

} // namespace bbb
