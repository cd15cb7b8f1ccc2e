#include "fault/fault_plan.hh"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <type_traits>

#include "energy/energy_model.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"

namespace bbb
{

std::string
compactDouble(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    // Prefer the shortest representation that still round-trips.
    for (int prec = 1; prec < 17; ++prec) {
        char shorter[48];
        std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
        if (std::strtod(shorter, nullptr) == v)
            return shorter;
    }
    return buf;
}

std::string
FaultPlan::toString() const
{
    if (!enabled() && !media)
        return "none";

    FaultPlan defaults;
    std::ostringstream os;
    auto sep = [&os, first = true]() mutable -> std::ostream & {
        if (!first)
            os << ',';
        first = false;
        return os;
    };

    if (battery_j >= 0.0)
        sep() << "battery_j=" << compactDouble(battery_j);
    if (media_fail_p > 0.0)
        sep() << "media_p=" << compactDouble(media_fail_p);
    if (media_retries != defaults.media_retries)
        sep() << "media_retries=" << media_retries;
    if (media_backoff != defaults.media_backoff)
        sep() << "media_backoff_ns=" << ticksToNs(media_backoff);
    if (recrash_after_blocks != 0)
        sep() << "recrash_blocks=" << recrash_after_blocks;
    if (recrash_budget_factor != defaults.recrash_budget_factor)
        sep() << "recrash_factor=" << compactDouble(recrash_budget_factor);
    if (media)
        sep() << "media=" << mediaKindName(*media);
    if (fault_seed != defaults.fault_seed)
        sep() << "fault_seed=" << fault_seed;
    return os.str();
}

namespace
{

/** Parse @p token into a default @p plan: "" or why it is malformed. */
std::string
parsePlan(const std::string &token, FaultPlan *plan)
{
    if (token.empty() || token == "none")
        return "";
    for (const NamedFaultPlan &preset : faultPlanPresets()) {
        if (token == preset.name) {
            *plan = preset.plan;
            return "";
        }
    }
    if (token.find('=') == std::string::npos)
        return "unknown fault-plan preset '" + token + "'";

    std::istringstream is(token);
    std::string pair;
    while (std::getline(is, pair, ',')) {
        auto eq = pair.find('=');
        if (eq == std::string::npos || eq == 0) {
            return "malformed fault-plan pair '" + pair + "' in '" + token +
                   "' (want key=value)";
        }
        std::string key = pair.substr(0, eq);
        std::string val = pair.substr(eq + 1);
        // Values convert per key, so an unknown key is reported as one.
        std::string bad;
        auto num = [&]() {
            char *end = nullptr;
            double v = std::strtod(val.c_str(), &end);
            if (end != val.c_str() && *end == '\0')
                return v;
            bad = "non-numeric fault-plan value '" + pair + "'";
            return 0.0;
        };
        auto count = [&](auto *field) {
            using T = std::remove_pointer_t<decltype(field)>;
            if (!parseUnsigned(val, field))
                bad = "fault-plan value '" + pair + "' is not " +
                      unsignedWant<T>();
        };

        if (key == "media") {
            plan->media = findName<MediaKind>(val);
            bad = nameError<MediaKind>(val);
        } else if (key == "battery_j") {
            plan->battery_j = num();
        } else if (key == "media_p") {
            plan->media_fail_p = num();
            if (plan->media_fail_p < 0.0 || plan->media_fail_p >= 1.0)
                bad = "media_p must be in [0, 1): " + val;
        } else if (key == "media_retries") {
            count(&plan->media_retries);
        } else if (key == "media_backoff_ns") {
            plan->media_backoff = nsToTicks(num());
        } else if (key == "recrash_blocks") {
            count(&plan->recrash_after_blocks);
        } else if (key == "recrash_factor") {
            plan->recrash_budget_factor = num();
            if (plan->recrash_budget_factor < 0.0 ||
                plan->recrash_budget_factor > 1.0)
                bad = "recrash_factor must be in [0, 1]: " + val;
        } else if (key == "fault_seed") {
            count(&plan->fault_seed);
        } else {
            bad = "unknown fault-plan key '" + key + "' in '" + token + "'";
        }
        if (!bad.empty())
            return bad;
    }
    return "";
}

} // namespace

FaultPlan
FaultPlan::parse(const std::string &token)
{
    FaultPlan plan;
    if (std::string bad = parsePlan(token, &plan); !bad.empty())
        fatal("%s", bad.c_str());
    return plan;
}

std::string
faultPlanError(const std::string &token)
{
    FaultPlan plan;
    return parsePlan(token, &plan);
}

std::vector<NamedFaultPlan>
faultPlanPresets()
{
    std::vector<NamedFaultPlan> presets;
    presets.push_back({"none", FaultPlan{}});

    FaultPlan flaky;
    flaky.media_fail_p = 0.02;
    presets.push_back({"flaky-media", flaky});

    FaultPlan dying;
    dying.media_fail_p = 0.2;
    dying.media_retries = 1;
    presets.push_back({"dying-media", dying});

    FaultPlan drained;
    drained.battery_j = 2e-6; // a few bbPB blocks' worth at Table VI rates
    presets.push_back({"drained-battery", drained});

    FaultPlan recrash;
    recrash.battery_j = 50e-6;
    recrash.recrash_after_blocks = 24;
    recrash.recrash_budget_factor = 0.25;
    presets.push_back({"recrash", recrash});
    return presets;
}

FaultPlan
undersizedBatteryPlan(const SystemConfig &cfg, double fraction,
                      std::uint64_t fault_seed)
{
    DrainCostModel cost(simulatedPlatform(cfg));

    FaultPlan plan;
    plan.fault_seed = fault_seed;
    plan.battery_j = fraction * cost.bbbCrashBudgetJ(cfg.bbpb.entries,
                                                     cfg.nvmm.wpq_entries);
    return plan;
}

} // namespace bbb
