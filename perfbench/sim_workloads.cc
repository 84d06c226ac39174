/**
 * @file
 * The two simulator workloads: `paper-sweep` (the 41 registry
 * scenarios outside scale-1024) and `scale-1024` (the 8 P in
 * {256, 1024} fabric scenarios).
 *
 * Untraced, a run is what `psync_bench --all` does: serial passes of
 * bench::runScenario with the transform passes on, in a seeded
 * order per pass, each pass's host times scaled to the reference
 * host speed by the calibration probes either side of it. Traced, the run re-composes core::runDoacross from
 * its public pieces and times each call from outside: loop build,
 * dependence graph, critical path, Machine, Scheme::plan/emit,
 * ir::runPasses, runProgramPool and TraceChecker::verify. A self-
 * check first proves the re-composition reproduces runScenario's
 * cycles and RunResult JSON for every scenario, and an observation
 * leg prices TraceRecorder plus the profile/timeline/blame builders.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>

#include "bench/registry.hh"
#include "common.hh"
#include "core/blame.hh"
#include "core/critical_path.hh"
#include "core/profile.hh"
#include "core/timeline.hh"
#include "core/tracing.hh"
#include "expected_cycles.hh"
#include "layers.hh"

namespace perf {

namespace {

using namespace psync;

/** The pass configuration psync_bench sweeps with by default. */
const ir::PassConfig &
transforms()
{
    static const ir::PassConfig cfg = [] {
        ir::PassConfig c;
        c.eliminateRedundantWaits = true;
        c.peephole = true;
        return c;
    }();
    return cfg;
}

/**
 * Warm-up passes timed for setup_s (median reported): more of the
 * cheap paper-sweep passes, fewer of the ~1 s scale-1024 ones.
 */
constexpr int kSetupRepsPaper = 5;
constexpr int kSetupRepsScale = 3;
/** Minimum timed passes, however short --seconds is. */
constexpr int kMinPasses = 3;
/**
 * The observation leg records every event; a run above this many
 * events is skipped there (scale-1024/p1024-flat-mem's ~4.8M
 * events need ~15 GB of trace).
 */
constexpr std::uint64_t kObserveMaxEvents = 400000;

/** A scenario's config as the sweep runs it (transforms on). */
core::RunConfig
configOf(const bench::Scenario &s)
{
    core::RunConfig cfg = s.config;
    cfg.passes = transforms();
    return cfg;
}

bool
isScale(const bench::Scenario &s)
{
    return s.id.rfind("scale-1024/", 0) == 0;
}

struct SimSet
{
    std::vector<const bench::Scenario *> scenarios;
    std::vector<std::uint64_t> expected;
    double registrySeconds = 0.0;
};

SimSet
selectScenarios(bool scale, std::size_t want, Result &r)
{
    SimSet set;
    auto t0 = Clock::now();
    const auto &all = bench::allScenarios();
    set.registrySeconds = secondsSince(t0);
    std::unordered_map<std::string, std::uint64_t> table;
    for (const auto &e : kExpectedCycles)
        table[e.scenario] = e.cycles;
    for (const auto &s : all) {
        if (isScale(s) != scale)
            continue;
        set.scenarios.push_back(&s);
        auto it = table.find(s.id);
        set.expected.push_back(it == table.end() ? 0 : it->second);
        if (it == table.end())
            r.fail("no recorded cycles for scenario " + s.id);
    }
    if (set.scenarios.size() != want)
        r.fail("expected " + std::to_string(want) + " scenarios, found " +
               std::to_string(set.scenarios.size()));
    return set;
}

/** Count one scenario run against the attempts; true when clean. */
bool
checkRun(Result &r, const std::string &id, const core::DoacrossResult &d,
         std::uint64_t expected)
{
    ++r.attempted;
    std::string why;
    if (!d.run.completed)
        why = "did not complete";
    else if (!d.violations.empty())
        why = "dependence violation: " + d.violations[0];
    else if (d.run.heapFallbackEvents != 0)
        why = std::to_string(d.run.heapFallbackEvents) +
              " heap-fallback events";
    else if (d.run.cycles != expected)
        why = "cycles " + std::to_string(d.run.cycles) + " != recorded " +
              std::to_string(expected);
    if (why.empty())
        return true;
    ++r.failed;
    r.fail(id + ": " + why);
    return false;
}

/** Seeded visiting order of pass `pass`. */
std::vector<std::size_t>
passOrder(std::size_t n, std::uint64_t seed, std::uint64_t pass)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    Rng rng(seed * 0x100000001b3ull + pass);
    rng.shuffle(order);
    return order;
}

/**
 * One untraced serial pass; returns its wall seconds. Each
 * scenario's host ms is appended to `samples[idx]` when given.
 */
double
sweepPass(const SimSet &set, const std::vector<std::size_t> &order,
          std::vector<std::vector<double>> *samples, Result &r)
{
    auto t_pass = Clock::now();
    for (std::size_t idx : order) {
        const bench::Scenario &s = *set.scenarios[idx];
        auto t0 = Clock::now();
        bench::ScenarioRecord rec =
            bench::runScenario(s, nullptr, &transforms());
        double ms = msBetween(t0, Clock::now());
        checkRun(r, s.id, rec.result, set.expected[idx]);
        if (samples)
            (*samples)[idx].push_back(ms);
    }
    return secondsSince(t_pass);
}

Result
runSimUntraced(const Args &args, bool scale, std::size_t want)
{
    Result r;
    SimSet set = selectScenarios(scale, want, r);
    const std::size_t n = set.scenarios.size();

    // Every pass is bracketed by calibration probes and its host
    // times are scaled to the reference host speed (common.hh).
    SpeedProbe probe;
    std::vector<double> warm;
    const int reps = scale ? kSetupRepsScale : kSetupRepsPaper;
    for (int rep = 0; rep < reps; ++rep) {
        double s = sweepPass(set, passOrder(n, args.seed, 1000 + rep),
                             nullptr, r);
        warm.push_back(s * probe.factor());
    }
    r.set("setup_s", set.registrySeconds + median(warm), "s");

    std::vector<std::vector<double>> samples(n);
    std::vector<double> pass_s, raw_pass_s;
    auto t_start = Clock::now();
    for (std::uint64_t pass = 0;
         pass < kMinPasses || secondsSince(t_start) < args.seconds;
         ++pass) {
        std::vector<std::vector<double>> raw(n);
        double s = sweepPass(set, passOrder(n, args.seed, pass), &raw, r);
        double f = probe.factor();
        raw_pass_s.push_back(s);
        pass_s.push_back(s * f);
        for (std::size_t i = 0; i < n; ++i)
            for (double ms : raw[i])
                samples[i].push_back(ms * f);
    }

    // Percentiles are taken across scenarios of each one's median:
    // pooled over runs, a percentile would jump between the clusters
    // of neighbouring scenarios from run to run.
    std::vector<double> per_scenario, cycles;
    for (std::size_t i = 0; i < n; ++i) {
        per_scenario.push_back(median(samples[i]));
        cycles.push_back(static_cast<double>(set.expected[i]));
    }
    r.set("pass_s", median(pass_s), "s");
    r.set("scenario_ms_geomean", geomean(per_scenario), "ms");
    r.set("op_ms_p50", median(per_scenario), "ms");
    r.set("op_ms_p99", quantile(per_scenario, 0.99), "ms");
    r.set("pass_s.raw", median(raw_pass_s), "s");
    r.set("host_speed", probe.medianFactor(), "ratio");
    // Every run was checked against the recorded cycles above, so
    // this equals the checked-in trajectory's geomean exactly.
    r.set("sim_cycles_geomean", geomean(cycles), "cycles");
    r.set("passes", static_cast<double>(pass_s.size()), "count");
    return r;
}

Result
runSimTraced(const Args &args, bool scale, std::size_t want)
{
    Result r;
    SimSet set = selectScenarios(scale, want, r);
    const std::size_t n = set.scenarios.size();

    // Self-check + observation leg: one visit per scenario.
    double doacross_ms = 0, plain_ms = 0, observed_ms = 0;
    double profile_ms = 0, timeline_ms = 0, blame_ms = 0;
    std::uint64_t observed = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const bench::Scenario &s = *set.scenarios[i];
        bench::ScenarioRecord ref =
            bench::runScenario(s, nullptr, &transforms());
        checkRun(r, s.id, ref.result, set.expected[i]);

        LayerPass scratch;
        Recomposed mine = recompose(s.loop, s.kind, configOf(s), scratch);
        ++r.attempted;
        if (!mine.verified || !mine.result.violations.empty() ||
            mine.result.run.cycles != ref.result.run.cycles ||
            mine.result.run.toJson().dump() !=
                ref.result.run.toJson().dump()) {
            ++r.failed;
            r.fail(s.id + ": layer split does not reproduce runScenario "
                          "(cycles " +
                   std::to_string(mine.result.run.cycles) + " vs " +
                   std::to_string(ref.result.run.cycles) + ")");
        }

        dep::Loop loop = s.loop();
        core::RunConfig cfg = configOf(s);
        core::DoacrossResult plain;
        double ms = timeMs(
            [&] { plain = core::runDoacross(loop, s.kind, cfg); });
        doacross_ms += ms;
        checkRun(r, s.id + " (runDoacross)", plain, set.expected[i]);
        if (plain.run.eventsExecuted > kObserveMaxEvents)
            continue;

        core::TraceRecorder recorder;
        core::RunConfig ocfg = cfg;
        ocfg.tracer = &recorder;
        ocfg.machine.timelineInterval =
            std::max<sim::Tick>(16, ref.boundCycles / 128);
        core::DoacrossResult obs;
        observed_ms += timeMs(
            [&] { obs = core::runDoacross(loop, s.kind, ocfg); });
        plain_ms += ms;
        ++observed;
        checkRun(r, s.id + " (observed)", obs, set.expected[i]);
        profile_ms += timeMs([&] {
            core::buildCriticalPathProfile(recorder, obs.run.cycles,
                                           ref.boundCycles);
        });
        timeline_ms += timeMs([&] { core::buildTimeline(recorder); });
        blame_ms += timeMs([&] {
            core::buildBlameReport(recorder, obs.run, ref.boundCycles);
        });
    }
    r.set("core.run_doacross_ms", doacross_ms, "ms");
    r.set("core.observe_ratio", plain_ms > 0 ? observed_ms / plain_ms : 0,
          "ratio");
    r.set("core.profile_ms", profile_ms, "ms");
    r.set("core.timeline_ms", timeline_ms, "ms");
    r.set("core.blame_ms", blame_ms, "ms");
    r.set("core.observed_scenarios", static_cast<double>(observed),
          "count");

    // Timed, re-composed passes; layer times are per-pass sums,
    // scaled to the reference host speed, medians over passes.
    std::vector<LayerPass> passes;
    SpeedProbe probe;
    auto t_start = Clock::now();
    for (std::uint64_t pass = 0;
         pass < kMinPasses || secondsSince(t_start) < args.seconds;
         ++pass) {
        LayerPass lp;
        for (std::size_t idx : passOrder(n, args.seed, pass)) {
            const bench::Scenario &s = *set.scenarios[idx];
            Recomposed rc = recompose(s.loop, s.kind, configOf(s), lp);
            checkRun(r, s.id + " (re-composed)", rc.result,
                     set.expected[idx]);
        }
        lp.scale(probe.factor());
        passes.push_back(std::move(lp));
    }

    setLayerMetrics(r, passes);
    r.set("passes", static_cast<double>(passes.size()), "count");
    return r;
}

} // namespace

Result
runPaperSweep(const Args &args)
{
    return args.trace ? runSimTraced(args, false, 41)
                      : runSimUntraced(args, false, 41);
}

Result
runScale1024(const Args &args)
{
    return args.trace ? runSimTraced(args, true, 8)
                      : runSimUntraced(args, true, 8);
}

} // namespace perf
