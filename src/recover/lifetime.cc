#include "recover/lifetime.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "api/experiment.hh"
#include "api/system.hh"
#include "energy/energy_model.hh"
#include "fault/fault_injector.hh"
#include "power/power_trace.hh"
#include "sim/rng.hh"

namespace bbb
{

const char *
lifetimeOutcomeName(LifetimeOutcome o)
{
    switch (o) {
      case LifetimeOutcome::Clean:
        return "clean";
      case LifetimeOutcome::DegradedRepaired:
        return "degraded-repaired";
      case LifetimeOutcome::OracleViolation:
        return "oracle-violation";
    }
    return "unknown";
}

const LifetimeRound *
LifetimeResult::firstViolation() const
{
    for (const LifetimeRound &r : round_log) {
        if (!r.oracle_ok)
            return &r;
    }
    return nullptr;
}

namespace
{

std::string
lifetimeReproLine(const std::string &workload, PersistMode mode,
                  std::uint64_t seed, unsigned rounds,
                  const FaultPlan &plan, const PowerEnv &env)
{
    std::ostringstream os;
    os << "--workload " << workload << " --mode " << persistModeName(mode)
       << " --seed " << seed << " --rounds " << rounds;
    if (env.active())
        os << " --trace " << env.trace << " --battery-j "
           << compactDouble(env.capacity_j) << " --policy "
           << degradePolicyName(env.policy);
    os << " --fault-plan " << plan.toString();
    return os.str();
}

} // namespace

std::string
LifetimeSample::reproLine() const
{
    return lifetimeReproLine(workload, cfg.mode, seed, rounds, plan,
                             power_env);
}

std::string
LifetimeResult::reproLine() const
{
    return lifetimeReproLine(workload, mode, seed, rounds, plan, power_env);
}

const LifetimeResult *
LifetimeSummary::firstViolation() const
{
    for (const LifetimeResult &r : results) {
        if (r.outcome == LifetimeOutcome::OracleViolation)
            return &r;
    }
    return nullptr;
}

std::vector<PersistMode>
safePersistModes()
{
    return {PersistMode::AdrPmem, PersistMode::Eadr,
            PersistMode::BbbMemSide, PersistMode::BbbProcSide};
}

std::vector<NamedFaultPlan>
LifetimeSpec::planFamily() const
{
    if (!plans.empty())
        return plans;
    if (traces.empty())
        return faultPlanPresets();
    return {{"none", FaultPlan{}}};
}

std::vector<LifetimeSample>
planLifetimeCampaign(const LifetimeSpec &spec)
{
    std::vector<PersistMode> modes =
        spec.modes.empty() ? safePersistModes() : spec.modes;
    // A power sweep runs every plan under every trace × battery × policy
    // environment; a seeded sweep has the one trace-free environment.
    std::vector<PowerEnv> envs(1);
    if (!spec.traces.empty()) {
        std::vector<double> caps = spec.battery_caps;
        if (caps.empty())
            caps.push_back(50e-6);
        std::vector<DegradePolicy> pols = spec.policies;
        if (pols.empty())
            pols.push_back(DegradePolicy::None);
        envs.clear();
        for (const std::string &trace : spec.traces) {
            for (double cap : caps) {
                for (DegradePolicy pol : pols)
                    envs.push_back({trace, cap, pol});
            }
        }
    }
    struct Cell
    {
        PowerEnv env;
        NamedFaultPlan np;
    };
    std::vector<Cell> cells;
    for (const PowerEnv &env : envs) {
        for (NamedFaultPlan np : spec.planFamily()) {
            if (env.active())
                np.name = env.trace + "+" + compactDouble(env.capacity_j) +
                          "J+" + degradePolicyName(env.policy) +
                          (np.name == "none" ? "" : "+" + np.name);
            cells.push_back({env, np});
        }
    }
    BBB_ASSERT(spec.min_crash_tick <= spec.max_crash_tick,
               "empty crash-tick window");
    BBB_ASSERT(spec.rounds >= 1, "a lifetime needs at least one round");

    // One sampling stream, consumed in a fixed nesting order, makes the
    // sample list a pure function of the spec.
    Rng rng(spec.campaign_seed ^ 0x11f3713ull);
    std::vector<LifetimeSample> samples;
    samples.reserve(spec.workloads.size() * modes.size() * cells.size() *
                    spec.lifetimes);
    for (const std::string &wl : spec.workloads) {
        for (PersistMode mode : modes) {
            for (const Cell &cell : cells) {
                for (unsigned i = 0; i < spec.lifetimes; ++i) {
                    LifetimeSample s;
                    s.cfg = spec.base;
                    s.cfg.mode = mode;
                    s.workload = wl;
                    s.params = spec.params;
                    s.plan = cell.np.plan;
                    s.plan_name = cell.np.name;
                    s.power_env = cell.env;
                    s.seed = rng.next();
                    s.rounds = spec.rounds;
                    s.min_crash_tick = spec.min_crash_tick;
                    s.max_crash_tick = spec.max_crash_tick;
                    samples.push_back(std::move(s));
                }
            }
        }
    }
    return samples;
}

namespace
{

using ThreadKeys = std::vector<std::vector<std::uint64_t>>;

void
sortKeys(ThreadKeys &keys)
{
    for (std::vector<std::uint64_t> &k : keys)
        std::sort(k.begin(), k.end());
}

/** Sorted keys of every bound thread; false if the workload has none. */
bool
collectSortedKeys(const Workload &wl, const PmemImage &img, ThreadKeys &out)
{
    if (!wl.collectKeys(img, out))
        return false;
    sortKeys(out);
    return true;
}

/** a \ b for sorted multisets. */
std::vector<std::uint64_t>
sortedDifference(const std::vector<std::uint64_t> &a,
                 const std::vector<std::uint64_t> &b)
{
    std::vector<std::uint64_t> d;
    std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(d));
    return d;
}

/**
 * The per-round durable-linearizability check on the sorted keys @p now
 * of the ledger-healed image: survivors of previous rounds must all
 * still be present, and the keys new this round must be exactly a
 * program-order prefix of what each thread issued this round.
 *
 * @return empty string on success, else the failed check.
 */
std::string
checkKeyOracle(const Workload &wl, const ThreadKeys &now,
               const ThreadKeys &expected)
{
    std::ostringstream why;
    for (unsigned t = wl.boundFirst(); t < wl.boundEnd(); ++t) {
        std::vector<std::uint64_t> lost = sortedDifference(expected[t], now[t]);
        if (!lost.empty()) {
            why << "thread " << t << " lost " << lost.size()
                << " previously recovered key(s)";
            return why.str();
        }
        std::vector<std::uint64_t> fresh = sortedDifference(now[t], expected[t]);
        const std::vector<std::uint64_t> &issued = wl.issuedKeys(t);
        if (fresh.size() > issued.size()) {
            why << "thread " << t << " persisted " << fresh.size()
                << " new key(s) but issued only " << issued.size();
            return why.str();
        }
        // Persist order == program order (Px86 under a battery): the
        // persisted new keys must be the first |fresh| issued ones.
        std::vector<std::uint64_t> prefix(issued.begin(),
                                          issued.begin() + fresh.size());
        std::sort(prefix.begin(), prefix.end());
        if (prefix != fresh) {
            why << "thread " << t
                << " persisted keys that are not a program-order prefix "
                   "of the issued stream";
            return why.str();
        }
    }
    return {};
}

} // namespace

LifetimeResult
runLifetimeSample(const LifetimeSample &sample)
{
    auto wl = makeWorkload(sample.workload, sample.params);

    LifetimeResult r;
    r.workload = sample.workload;
    r.plan_name = sample.plan_name;
    r.mode = sample.cfg.mode;
    r.seed = sample.seed;
    r.rounds = sample.rounds;
    r.plan = sample.plan;
    r.power_env = sample.power_env;

    // One schedule stream per lifetime: crash ticks and per-round seeds
    // re-derive from sample.seed alone, which is what makes the repro
    // line sufficient.
    Rng sched(sample.seed ^ 0x5c4ed11ull);
    BackingStore carried;
    std::vector<Addr> frontiers;
    ThreadKeys expected;
    bool keyed = false;
    bool degraded = false;

    // Power-trace lifetimes: outages come from walking the trace with a
    // live battery instead of from seeded crash ticks.
    const PowerEnv &env = sample.power_env;
    const bool power_mode = env.active();
    std::unique_ptr<PowerScheduler> power;
    const double item_j = EnergyConstants{}.l1BlockJ();
    if (power_mode) {
        power = std::make_unique<PowerScheduler>(
            PowerTrace::parse(env.trace),
            BatterySpec::fromCapacityJ(env.capacity_j));
        if (env.policy == DegradePolicy::Throttle)
            power->setPostWarningLoad(0.5);
    }

    for (unsigned round = 0; round < sample.rounds; ++round) {
        LifetimeRound rr;
        if (power_mode) {
            // Keep the stream shape of the point-crash path: one draw
            // stands in for the crash-tick sample.
            (void)sched.next();
        } else {
            rr.crash_tick =
                sched.range(sample.min_crash_tick, sample.max_crash_tick);
        }
        std::uint64_t sys_seed = sched.next();
        std::uint64_t fault_seed = sched.next();

        SystemConfig cfg = sample.cfg;
        cfg.seed = sys_seed;
        // Repro lines carry plan.toString(), so media=ftl rides in the
        // plan token and every round rebuilds the same backend.
        if (!sample.plan.media.empty())
            cfg.media.kind = mediaKindFromName(sample.plan.media);
        System sys(cfg);
        FaultPlan plan = sample.plan;
        plan.fault_seed = fault_seed;
        // A power round always drains through a battery gate: arm the
        // injector with a budget, refined to the outage charge below.
        if (power_mode)
            plan.battery_j = env.capacity_j;
        sys.setFaultPlan(plan);

        if (round == 0) {
            wl->install(sys);
            // The durability baseline: everything prepare() persisted.
            // The key-level oracle is only sound for plans that cannot
            // tear media: a resumed round reads back the torn blocks of
            // the round before, so a stale pointer can fork a live
            // structure and orphan mid-stream keys — ledgered damage
            // propagating architecturally, which only the block-level
            // structural oracle classifies fairly.
            keyed = !sample.plan.injectsMediaFaults() &&
                    collectSortedKeys(*wl, sys.pmemImage(), expected);
        } else {
            reseedSystem(sys, carried, frontiers);
            wl->resume(sys);
        }

        if (!power_mode) {
            rr.report = sys.runAndCrashAt(rr.crash_tick);
        } else {
            // Walk the trace to the next outage. The warning hook runs
            // the machine up to the warning instant (window-relative),
            // applies the degradation policy, and reports the Joules the
            // policy itself spent so the battery sees the drain.
            PowerWindow win;
            power->setWarningHook([&](Tick tick, double) -> double {
                sys.runUntil(tick - win.start);
                double spent = 0.0;
                if (env.policy == DegradePolicy::DrainOldest) {
                    std::uint64_t blocks = sys.proactiveDrain();
                    rr.proactive_blocks = blocks;
                    power->stats().proactive_drain_blocks += blocks;
                    spent = static_cast<double>(blocks) * item_j;
                } else if (env.policy == DegradePolicy::RefuseDirty) {
                    sys.setLowPower(true);
                }
                return spent;
            });
            bool have = power->nextWindow(&win);
            power->setWarningHook(nullptr); // sys dies with this round
            if (!have)
                break; // trace exhausted (possibly starved): no more rounds
            rr.power_round = true;
            rr.crash_tick = win.runTicks();
            rr.charge_at_outage = win.charge_at_outage;
            rr.brownout_outage = win.brownout_outage;
            rr.had_warning = win.has_warning;
            // The drain budget is whatever charge the battery actually
            // held at the failure; the budget is only consulted at crash
            // time, so refining it now leaves the media stream untouched.
            sys.faultInjector()->setBudgetJ(win.charge_at_outage);
            sys.runUntil(rr.crash_tick);
            rr.report = sys.crashNow();
            power->noteCrashSpend(
                rr.report.battery_spent_j, rr.report.battery_exhausted,
                static_cast<double>(rr.report.sacrificed_blocks) * item_j);
        }

        rr.retired_frames = sys.nvmmMedia().stats().retired_frames.value();

        // Oracle 1: the ledger-healed image must be consistent and, for
        // keyed workloads, durably linearizable against the baseline.
        // Without ledgered damage the crash image is the healed image.
        std::optional<BackingStore> repaired;
        const FaultInjector *inj = sys.faultInjector();
        if (inj && !inj->damagedBlocks().empty()) {
            rr.damaged_blocks = inj->damagedBlocks().size();
            repaired = sys.image().clone();
            inj->repairImage(*repaired);
        }
        PmemImage healed_img(repaired ? *repaired : sys.image(),
                             sys.addrMap());
        // One walk counts the healed image and collects its keys.
        ThreadKeys healed_keys;
        rr.healed =
            wl->checkRecovery(healed_img, keyed ? &healed_keys : nullptr);
        sortKeys(healed_keys);
        // A resumed round reads back the torn blocks of the round
        // before, so their stale halves propagate into cleanly-written
        // blocks — damage the final ledger cannot describe. From round
        // 1 on, plans that can tear media only claim the drain prefix
        // and graceful recovery below. Round 0 reads no torn half (the
        // controller forwards ledgered intent while powered), so its
        // healed walk holds for every plan.
        bool walk = round == 0 || !sample.plan.injectsMediaFaults();
        if (!rr.report.drain_prefix_ok) {
            rr.oracle_ok = false;
            rr.detail = "crash drain broke its oldest-first prefix";
        } else if (walk && !rr.healed.consistent()) {
            rr.oracle_ok = false;
            rr.detail = "healed image fails the consistency walk";
        } else if (keyed) {
            std::string why = checkKeyOracle(*wl, healed_keys, expected);
            if (!why.empty()) {
                rr.oracle_ok = false;
                rr.detail = why;
            }
        }

        // Oracle 2: recover the *raw* image. Never aborts; ledgered
        // damage must come back degraded-repaired, and an undamaged
        // image must not need repairs.
        BackingStore raw = sys.image().clone();
        RecoveryManager mgr(raw, sys.addrMap(), cfg.num_cores);
        RecoverOutcome rec = mgr.recover(*wl);
        rr.recovery = rec.status;
        rr.repairs = rec.repairs;
        rr.dropped = rec.dropped;
        if (!rec.resumable()) {
            rr.oracle_ok = false;
            rr.detail = "unrecoverable image: " + rec.detail;
        } else if (rr.oracle_ok && rec.repairs > 0 &&
                   rr.damaged_blocks == 0) {
            rr.oracle_ok = false;
            rr.detail = "recovery repaired an image the fault ledger "
                        "says was undamaged";
        }
        if (rr.damaged_blocks > 0 && rr.recovery == RecoveryStatus::Clean)
            rr.recovery = RecoveryStatus::DegradedRepaired;
        if (rr.recovery == RecoveryStatus::DegradedRepaired)
            degraded = true;

        rr.image_fingerprint = raw.fingerprint();
        r.image_fingerprint = rr.image_fingerprint;
        bool ok = rr.oracle_ok;
        bool raw_is_healed = rr.damaged_blocks == 0 && rec.repairs == 0 &&
                             rec.normalized == 0;
        r.round_log.push_back(std::move(rr));
        if (!ok) {
            r.outcome = LifetimeOutcome::OracleViolation;
            if (power_mode) {
                r.powered = true;
                r.power = power->stats();
            }
            return r;
        }

        // Rebaseline durability on what recovery actually kept: a
        // degraded round shrinks the guarantee, it does not void it.
        // With no ledgered damage and no recovery write, raw holds the
        // healed bytes, so the healed walk's keys are its keys.
        if (keyed && raw_is_healed)
            expected = std::move(healed_keys);
        else if (keyed)
            collectSortedKeys(*wl, PmemImage(raw, sys.addrMap()), expected);
        carried = std::move(raw);
        frontiers = rec.frontiers;
    }

    r.outcome = degraded ? LifetimeOutcome::DegradedRepaired
                         : LifetimeOutcome::Clean;
    if (power_mode) {
        r.powered = true;
        r.power = power->stats();
    }
    return r;
}

LifetimeSummary
runLifetimeCampaign(const LifetimeSpec &spec, unsigned jobs)
{
    std::vector<LifetimeSample> samples = planLifetimeCampaign(spec);

    LifetimeSummary summary;
    summary.results.resize(samples.size());
    // Same pool as runExperiments: each lifetime owns its Systems and
    // writes only its own slot, so any jobs width gives the same bits.
    runIndexedJobs(
        samples.size(),
        [&](std::size_t i) {
            summary.results[i] = runLifetimeSample(samples[i]);
        },
        jobs, [&](std::size_t i) { return samples[i].reproLine(); });

    std::uint64_t rounds = 0, damaged = 0, repairs = 0, dropped = 0;
    std::uint64_t rec_clean = 0, rec_degraded = 0, rec_unrecoverable = 0;
    std::uint64_t sacrificed = 0, torn = 0, retries = 0, recrashes = 0;
    std::uint64_t exhausted = 0, drained_bytes = 0, retired = 0;
    double battery_spent_j = 0.0;
    for (const LifetimeResult &r : summary.results) {
        switch (r.outcome) {
          case LifetimeOutcome::Clean:
            ++summary.clean;
            break;
          case LifetimeOutcome::DegradedRepaired:
            ++summary.degraded;
            break;
          case LifetimeOutcome::OracleViolation:
            ++summary.violations;
            break;
        }
        rounds += r.round_log.size();
        for (const LifetimeRound &round : r.round_log) {
            damaged += round.damaged_blocks;
            repairs += round.repairs;
            dropped += round.dropped;
            retired += round.retired_frames;
            sacrificed += round.report.sacrificed_blocks;
            torn += round.report.torn_media_blocks;
            retries += round.report.media_retries;
            recrashes += round.report.recrashes;
            if (round.report.battery_exhausted)
                ++exhausted;
            drained_bytes += round.report.drained_bytes;
            battery_spent_j += round.report.battery_spent_j;
            switch (round.recovery) {
              case RecoveryStatus::Clean:
                ++rec_clean;
                break;
              case RecoveryStatus::DegradedRepaired:
                ++rec_degraded;
                break;
              case RecoveryStatus::Unrecoverable:
                ++rec_unrecoverable;
                break;
            }
        }
    }

    MetricSnapshot &m = summary.metrics;
    m.setCount("lifetime.lifetimes", summary.results.size());
    m.setCount("lifetime.clean", summary.clean);
    m.setCount("lifetime.degraded_repaired", summary.degraded);
    m.setCount("lifetime.oracle_violations", summary.violations);
    m.setCount("lifetime.rounds", rounds);
    m.setCount("lifetime.damaged_blocks", damaged);
    m.setCount("lifetime.repairs", repairs);
    m.setCount("lifetime.dropped", dropped);
    m.setCount("lifetime.recovery_clean", rec_clean);
    m.setCount("lifetime.recovery_degraded", rec_degraded);
    m.setCount("lifetime.recovery_unrecoverable", rec_unrecoverable);
    m.setCount("lifetime.retired_frames", retired);
    m.setCount("lifetime.sacrificed_blocks", sacrificed);
    m.setCount("lifetime.torn_media_blocks", torn);
    m.setCount("lifetime.media_retries", retries);
    m.setCount("lifetime.recrashes", recrashes);
    m.setCount("lifetime.battery_exhausted", exhausted);
    m.setCount("lifetime.drained_bytes", drained_bytes);
    m.setReal("lifetime.battery_spent_j", battery_spent_j);

    // Power-environment aggregates, present only when the campaign swept
    // power traces (keeps point-crash snapshots byte-identical).
    PowerStats pw;
    std::uint64_t powered = 0, starved = 0;
    for (const LifetimeResult &r : summary.results) {
        if (!r.powered)
            continue;
        ++powered;
        if (r.power.starved)
            ++starved;
        pw.merge(r.power);
    }
    if (powered) {
        m.setCount("power.lifetimes", powered);
        m.setCount("power.outages", pw.outages);
        m.setCount("power.brownout_outages", pw.brownout_outages);
        m.setCount("power.brownouts_survived", pw.brownouts_survived);
        m.setCount("power.warnings", pw.warnings);
        m.setCount("power.proactive_drain_blocks",
                   pw.proactive_drain_blocks);
        m.setCount("power.resume_waits", pw.resume_waits);
        m.setCount("power.starved", starved);
        m.setReal("power.energy_harvested_j", pw.energy_harvested_j);
        m.setReal("power.energy_activity_j", pw.energy_activity_j);
        m.setReal("power.energy_drain_j", pw.energy_drain_j);
        m.setReal("power.min_headroom_j",
                  std::isfinite(pw.min_headroom_j) ? pw.min_headroom_j
                                                   : 0.0);
    }
    return summary;
}

} // namespace bbb
