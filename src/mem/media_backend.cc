#include "mem/media_backend.hh"

namespace bbb
{

void
MediaStats::registerWith(StatGroup &g)
{
    g.addCounter("programs", &programs, "physical block programs");
    g.addCounter("demand_programs", &demand_programs,
                 "programs serving demand/drain commits");
    g.addCounter("program_bytes", &program_bytes,
                 "bytes physically programmed");
    g.addCounter("torn_programs", &torn_programs,
                 "programs torn by terminal media failures");
    g.addCounter("byte_writes", &byte_writes,
                 "sub-block crash-time patches");
    g.addCounter("migrations", &migrations,
                 "wear-leveling background migrations");
    g.addCounter("retired_frames", &retired_frames,
                 "frames retired at the endurance limit");
    g.addCounter("frames_minted", &frames_minted,
                 "physical frames brought into service");
    g.addHistogram("wear", &wear, "frame wear sampled at each program");
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
