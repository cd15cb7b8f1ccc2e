/**
 * @file
 * Power traces: supply level over simulated time.
 *
 * A trace is a monotone sequence of segments, each holding the supply at
 * one level (0 = dead, 1 = full) for a tick range. Gaps between segments
 * and everything past the last segment are supply 0 — the trace is the
 * *whole* power history, so a machine still running at trace end sees an
 * outage there.
 *
 * A trace is written as one token, the value of a `--trace`/`--traces`
 * flag (it must not contain commas — `--traces` and LifetimeSpec lists
 * split on them): a preset name with `:`-separated parameters
 *     steady[:us=400]
 *     brownout[:cycles=4]            (brownout dip then outage, repeated)
 *     square[:cycles=5][:on_us=45][:off_us=35]
 *     outages[:seed=1][:cycles=5]    (seeded-random powered/outage spans)
 * or inline segments, `;`-separated, ns ranges:
 *     seg:0-60000@1;60000-70000@0.3
 *
 * The parser rejects empty traces, zero-length segments, non-monotone
 * tick ranges, and out-of-range levels. tryParse() reports instead of
 * fataling so drivers can exit(2) under --strict-args.
 */

#ifndef BBB_POWER_POWER_TRACE_HH
#define BBB_POWER_POWER_TRACE_HH

#include <string>
#include <vector>

#include "sim/types.hh"

namespace bbb
{

/** One span of constant supply level. */
struct PowerSegment
{
    Tick begin = 0;
    Tick end = 0;
    double level = 0.0;
};

/** A parsed, validated supply-level trace. */
class PowerTrace
{
  public:
    PowerTrace() = default;

    const std::vector<PowerSegment> &segments() const { return _segs; }
    bool empty() const { return _segs.empty(); }

    /** The token this trace parsed from (repro printing). */
    const std::string &token() const { return _token; }

    /** First tick past the last segment (supply is 0 from here on). */
    Tick endTick() const { return _segs.empty() ? 0 : _segs.back().end; }

    /** Supply level at @p t (0 in gaps and past the end). */
    double levelAt(Tick t) const;

    /**
     * Parse a one-token trace (preset or `seg:` form) into @p out.
     * @return false with a diagnostic in @p err on malformed input.
     */
    static bool tryParse(const std::string &token, PowerTrace *out,
                         std::string *err);

    /** tryParse() or fatal() — the trusted repro-replay path. */
    static PowerTrace parse(const std::string &token);

  private:
    std::vector<PowerSegment> _segs;
    std::string _token;
};

/** The built-in preset names campaigns sweep by default. */
std::vector<std::string> powerTracePresetNames();

} // namespace bbb

#endif // BBB_POWER_POWER_TRACE_HH
