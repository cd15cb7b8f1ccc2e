#include "mem/media_backend.hh"

namespace bbb
{

void
MediaStats::registerWith(StatGroup &g)
{
    g.addCounter("programs", &programs);
    g.addCounter("demand_programs", &demand_programs);
    g.addCounter("program_bytes", &program_bytes);
    g.addCounter("torn_programs", &torn_programs);
    g.addCounter("byte_writes", &byte_writes);
    g.addCounter("migrations", &migrations);
    g.addCounter("retired_frames", &retired_frames);
    g.addCounter("frames_minted", &frames_minted);
    g.addHistogram("wear", &wear);
}

void
MediaBackend::addDerivedMetrics(MetricSnapshot &m, double) const
{
    // Physical programs per demand commit: 1.0 for a pass-through
    // device, > 1.0 once wear-leveling migrations add traffic.
    double demand = static_cast<double>(_stats.demand_programs.value());
    double total = static_cast<double>(_stats.programs.value());
    m.setReal("media.write_amplification", demand > 0 ? total / demand : 0.0);
}

} // namespace bbb
