#include "fault/fault_plan.hh"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "energy/energy_model.hh"
#include "sim/config.hh"
#include "sim/logging.hh"

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
    if (!enabled() && media.empty())
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
    if (!media.empty())
        sep() << "media=" << media;
    if (fault_seed != defaults.fault_seed)
        sep() << "fault_seed=" << fault_seed;
    return os.str();
}

FaultPlan
FaultPlan::parse(const std::string &token)
{
    if (token.empty() || token == "none")
        return FaultPlan{};
    for (const NamedFaultPlan &preset : faultPlanPresets()) {
        if (token == preset.name)
            return preset.plan;
    }

    FaultPlan plan;
    std::istringstream is(token);
    std::string pair;
    while (std::getline(is, pair, ',')) {
        auto eq = pair.find('=');
        if (eq == std::string::npos || eq == 0) {
            fatal("malformed fault-plan pair '%s' in '%s' (want key=value)",
                  pair.c_str(), token.c_str());
        }
        std::string key = pair.substr(0, eq);
        std::string val = pair.substr(eq + 1);
        // Values convert per key, so an unknown key is reported as one.
        auto num = [&]() {
            char *end = nullptr;
            double v = std::strtod(val.c_str(), &end);
            if (end == val.c_str() || *end != '\0')
                fatal("non-numeric fault-plan value '%s'", pair.c_str());
            return v;
        };

        if (key == "media") {
            if (val != "direct" && val != "ftl")
                fatal("unknown media kind '%s' (want direct or ftl)",
                      val.c_str());
            plan.media = val;
        } else if (key == "battery_j") {
            plan.battery_j = num();
        } else if (key == "media_p") {
            plan.media_fail_p = num();
            if (plan.media_fail_p < 0.0 || plan.media_fail_p >= 1.0)
                fatal("media_p must be in [0, 1): %s", val.c_str());
        } else if (key == "media_retries") {
            plan.media_retries = static_cast<unsigned>(num());
        } else if (key == "media_backoff_ns") {
            plan.media_backoff = nsToTicks(num());
        } else if (key == "recrash_blocks") {
            plan.recrash_after_blocks = static_cast<std::uint64_t>(num());
        } else if (key == "recrash_factor") {
            plan.recrash_budget_factor = num();
            if (plan.recrash_budget_factor < 0.0 ||
                plan.recrash_budget_factor > 1.0)
                fatal("recrash_factor must be in [0, 1]: %s", val.c_str());
        } else if (key == "fault_seed") {
            plan.fault_seed = static_cast<std::uint64_t>(num());
        } else {
            fatal("unknown fault-plan key '%s' in '%s'", key.c_str(),
                  token.c_str());
        }
    }
    return plan;
}

bool
FaultPlan::operator==(const FaultPlan &o) const
{
    return fault_seed == o.fault_seed && battery_j == o.battery_j &&
           media_fail_p == o.media_fail_p &&
           media_retries == o.media_retries &&
           media_backoff == o.media_backoff &&
           recrash_after_blocks == o.recrash_after_blocks &&
           recrash_budget_factor == o.recrash_budget_factor &&
           media == o.media;
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
