/**
 * @file
 * The `serve-open-loop` workload: serve::DoacrossService with one
 * gang of two lanes, the main thread as the load generator (three
 * threads in all). No simulator runs. Requests draw uniformly
 * (seeded) from the plans of the fig21-n256 and nested-32x32
 * groups, so request sizes differ by about 4x.
 *
 * A run sets up kSetupReps fresh service instances (fresh gang
 * threads, so a fresh thread placement each). Each one serves its
 * share of the isolated rounds (one request in flight) and
 * kBurstsPerInstance saturating bursts. The last instance then takes
 * seeded Poisson arrivals through submit() at a low and a high fixed
 * rate, and climbs a fixed rate ladder. An open-loop request is timed
 * from its *scheduled* arrival:
 *
 *   latency = (actual submit() call - scheduled time)
 *             + Completion::latencyNanos
 *
 * so a stalled generator or a full queue is charged to every request
 * it delays. Percentiles come from the raw samples.
 *
 * The end-to-end figures are the queue-free ones: burst drain time
 * (scaled to the reference host speed, common.hh) and isolated
 * latency. On the reference host the open-loop latencies swing with
 * the host's speed, so they are report lines. Even the queue-free
 * figures did not hold still enough there for BENCHMARK.json to
 * gate this workload (see NOTES.md).
 */

#include <barrier>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "bench/registry.hh"
#include "common.hh"
#include "native/executor.hh"
#include "native/fabric.hh"
#include "serve/service.hh"

namespace perf {

namespace {

using namespace psync;

/**
 * Offered rates, requests per second: about 5% and 50% of the
 * saturated rate, frozen from one measurement on the reference host
 * while it ran slow (~600 req/s; ~870 req/s when it runs fast).
 */
constexpr double kLowRate = 30.0;
constexpr double kHighRate = 300.0;
/** Requests per saturating burst. */
constexpr std::size_t kBurstRequests = 800;
/**
 * Isolated rounds: every plan served alone this many times (2040
 * requests), so the p99 over all of them has twenty samples beyond
 * it.
 */
constexpr int kIsolatedRounds = 170;
/** Saturating bursts drained per service instance. */
constexpr int kBurstsPerInstance = 2;
/** The max-rate ladder and its p99 limit. */
constexpr double kLadder[] = {100, 200, 300, 400, 500, 600,
                              700, 750, 800, 850, 900, 1000};
/** Rungs the ladder's time share is planned for (it stops after
 * two failing rungs in a row). */
constexpr double kLadderPlannedRungs = 10.0;
constexpr double kLadderP99LimitMs = 50.0;
/**
 * Latency percentiles of a fixed-rate phase are taken per window of
 * this many seconds and reported as the median over windows, so one
 * host stall moves one window, not the run's figure.
 */
constexpr double kWindowS = 1.0;
/** Every Nth request per gang is fully verified (psync_serve's
 * campaign default). */
constexpr unsigned kVerifyEvery = 64;
/** Service instances set up per run; setup_s is their median. */
constexpr int kSetupReps = 5;

struct Source
{
    dep::Loop loop;
    sync::SchemeKind kind;
    core::RunConfig config;
};

std::vector<Source>
planSources(Result &r)
{
    std::vector<Source> out;
    for (const char *glob : {"fig21-n256/*", "nested-32x32/*"}) {
        for (const bench::Scenario *s : bench::matchScenariosGlob(glob)) {
            Source src{s->loop(), s->kind, s->config};
            // Served programs are the optimized lowering, as in
            // psync_serve.
            src.config.passes.enabled = true;
            src.config.passes.verify = true;
            src.config.passes.eliminateRedundantWaits = true;
            src.config.passes.peephole = true;
            out.push_back(std::move(src));
        }
    }
    if (out.size() < 2)
        r.fail("serve: plan sources missing from the registry");
    return out;
}

serve::ServeConfig
serveConfig()
{
    serve::ServeConfig cfg;
    cfg.gangs = 1;
    cfg.gangSize = 2;
    cfg.verifySampleEvery = kVerifyEvery;
    cfg.requestTimeoutMs = 2000;
    return cfg;
}

/** One request as the generator saw it. */
struct Sent
{
    std::size_t source = 0;
    /** Scheduled offset from the phase start, seconds. */
    double atS = 0.0;
    Clock::time_point scheduled;
    Clock::time_point called;
    Clock::time_point returned;
};

/** Outcome of one arrival phase. */
struct Phase
{
    std::vector<double> latencyMs;
    /** Window index (kWindowS-long slices of the phase) per sample. */
    std::vector<std::size_t> window;
    std::vector<double> lateMs;
    std::vector<double> submitUs;
    std::vector<double> publishMs;
    double drainMs = 0.0;
    std::uint64_t programs = 0;
};

/** Median over windows of each window's q-quantile. */
double
windowed(const Phase &phase, double q)
{
    std::map<std::size_t, std::vector<double>> by_window;
    for (std::size_t i = 0; i < phase.latencyMs.size(); ++i)
        by_window[phase.window[i]].push_back(phase.latencyMs[i]);
    std::vector<double> per_window;
    for (const auto &kv : by_window)
        per_window.push_back(quantile(kv.second, q));
    return median(per_window);
}

/** Fold the completions of `sent` into `phase`; count failures. */
void
collect(serve::DoacrossService &service,
        const std::unordered_map<std::uint64_t, Sent> &sent, Phase &phase,
        Result &r)
{
    std::size_t seen = 0;
    for (const serve::Completion &c : service.takeCompletions()) {
        auto it = sent.find(c.requestId);
        if (it == sent.end())
            continue;
        ++seen;
        ++r.attempted;
        phase.programs += c.programsRun;
        if (!c.completed || !c.verifyOk) {
            ++r.failed;
            r.fail("serve: request " + std::to_string(c.requestId) +
                   " failed: " +
                   (c.problems.empty() ? std::string("?")
                                       : c.problems[0]));
            continue;
        }
        const Sent &s = it->second;
        double late = msBetween(s.scheduled, s.called);
        double ms = late + static_cast<double>(c.latencyNanos) / 1e6;
        phase.latencyMs.push_back(ms);
        phase.window.push_back(static_cast<std::size_t>(s.atS / kWindowS));
        phase.lateMs.push_back(late);
        phase.submitUs.push_back(msBetween(s.called, s.returned) * 1e3);
        phase.publishMs.push_back(static_cast<double>(c.latencyNanos) /
                                  1e6);
    }
    if (seen != sent.size()) {
        r.attempted += sent.size() - seen;
        r.failed += sent.size() - seen;
        r.fail("serve: " + std::to_string(sent.size() - seen) +
               " requests never completed");
    }
}

/**
 * Offer seeded Poisson arrivals at `rate` for `seconds` (plans drawn
 * from `rng` too), wait for the drain, and collect.
 */
Phase
openLoop(serve::DoacrossService &service,
         const std::vector<Source> &sources, double rate, double seconds,
         Rng &rng, Result &r)
{
    std::unordered_map<std::uint64_t, Sent> sent;
    const std::size_t count =
        std::max<std::size_t>(1, static_cast<std::size_t>(rate * seconds));
    sent.reserve(count);
    auto t0 = Clock::now() + std::chrono::milliseconds(2);
    double at_s = 0.0;
    for (std::size_t k = 0; k < count; ++k) {
        at_s += -std::log(rng.unit()) / rate;
        Sent s;
        s.source = rng.below(sources.size());
        s.atS = at_s;
        s.scheduled = t0 + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(at_s));
        std::this_thread::sleep_until(s.scheduled);
        const Source &src = sources[s.source];
        s.called = Clock::now();
        std::uint64_t id = service.submit(src.loop, src.kind, src.config);
        s.returned = Clock::now();
        if (id == 0) {
            ++r.attempted;
            ++r.failed;
            r.fail("serve: submit refused");
            continue;
        }
        sent.emplace(id, s);
    }
    Phase phase;
    auto t_last = Clock::now();
    service.waitIdle();
    phase.drainMs = msBetween(t_last, Clock::now());
    collect(service, sent, phase, r);
    return phase;
}

/** Submit `n` requests back to back; returns drained wall seconds. */
double
burst(serve::DoacrossService &service, const std::vector<Source> &sources,
      std::size_t n, Rng &rng, std::uint64_t &programs, Result &r)
{
    std::unordered_map<std::uint64_t, Sent> sent;
    sent.reserve(n);
    auto t0 = Clock::now();
    for (std::size_t k = 0; k < n; ++k) {
        Sent s;
        s.source = rng.below(sources.size());
        const Source &src = sources[s.source];
        s.scheduled = s.called = Clock::now();
        std::uint64_t id = service.submit(src.loop, src.kind, src.config);
        s.returned = Clock::now();
        if (id == 0) {
            ++r.attempted;
            ++r.failed;
            r.fail("serve: submit refused");
            continue;
        }
        sent.emplace(id, s);
    }
    service.waitIdle();
    double wall = secondsSince(t0);
    Phase phase;
    collect(service, sent, phase, r);
    programs += phase.programs;
    return wall;
}

/**
 * One request in flight at a time: every plan, `rounds` times in a
 * seeded order, each timed from the submit() call to the return of
 * waitIdle() (the client's view of an idle service).
 */
std::vector<std::vector<double>>
isolatedRounds(serve::DoacrossService &service,
               const std::vector<Source> &sources, int rounds, Rng &rng,
               Result &r)
{
    std::vector<std::vector<double>> ms(sources.size());
    std::vector<std::size_t> order(sources.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    for (int round = 0; round < rounds; ++round) {
        rng.shuffle(order);
        for (std::size_t i : order) {
            const Source &src = sources[i];
            auto t0 = Clock::now();
            std::uint64_t id = service.submit(src.loop, src.kind, src.config);
            service.waitIdle();
            ms[i].push_back(msBetween(t0, Clock::now()));
            for (const serve::Completion &c : service.takeCompletions()) {
                ++r.attempted;
                if (c.requestId != id || !c.completed || !c.verifyOk) {
                    ++r.failed;
                    r.fail("serve: isolated request failed");
                }
            }
        }
    }
    return ms;
}

/** Start a service, cold-plan every source, one warm request each. */
struct Setup
{
    std::unique_ptr<serve::DoacrossService> service;
    double seconds = 0.0;
    double coldPlanMs = 0.0;
};

Setup
setUp(const std::vector<Source> &sources, Result &r)
{
    Setup s;
    auto t0 = Clock::now();
    s.service = std::make_unique<serve::DoacrossService>(serveConfig());
    std::vector<std::shared_ptr<const core::CachedPlan>> plans;
    for (const Source &src : sources) {
        s.coldPlanMs += timeMs([&] {
            plans.push_back(
                s.service->plan(src.loop, src.kind, src.config));
        });
    }
    for (const auto &plan : plans) {
        if (s.service->submitPlan(plan) == 0)
            r.fail("serve: warm-up submit refused");
        s.service->waitIdle();
    }
    s.seconds = secondsSince(t0);
    for (const serve::Completion &c : s.service->takeCompletions()) {
        ++r.attempted;
        if (!c.completed || !c.verifyOk) {
            ++r.failed;
            r.fail("serve: warm-up request failed");
        }
    }
    return s;
}

/** Highest ladder rung meeting the p99 limit without backlog. */
double
maxRate(serve::DoacrossService &service, const std::vector<Source> &sources,
        double seconds, Rng &rng, Result &r)
{
    const double per_rung = seconds / kLadderPlannedRungs;
    double best = 0.0;
    int misses = 0;
    for (double rate : kLadder) {
        Phase p = openLoop(service, sources, rate, per_rung, rng, r);
        bool ok = !p.latencyMs.empty() &&
                  quantile(p.latencyMs, 0.99) <= kLadderP99LimitMs &&
                  p.drainMs <= kLadderP99LimitMs;
        if (ok) {
            best = rate;
            misses = 0;
        } else if (++misses == 2) {
            break; // two failing rungs in a row: past saturation
        }
    }
    return best;
}

/** Native-layer figures of the epoch-reused execution path. */
struct NativeLeg
{
    std::vector<double> runMs;
    double wallNs = 0, syncOps = 0, waits = 0, parks = 0, faRetries = 0;
    core::LogHistogram waitNs, parkWakeNs;
};

/**
 * The service's per-request execution, re-composed from outside
 * with host-clock profiling on: one arena per plan (epoch-reuse
 * fabric, data memory, gang-mode executor) and two persistent
 * lanes, exactly as serveRequest drives a gang, minus the queue and
 * the batched publish.
 */
NativeLeg
nativeLeg(serve::DoacrossService &service, const std::vector<Source> &sources,
          std::size_t requests, Rng &rng, Result &r)
{
    constexpr unsigned kLanes = 2;
    struct Arena
    {
        std::shared_ptr<const core::CachedPlan> plan;
        native::NativeSyncFabric fabric;
        native::NativeDataMemory data;
        native::NativeExecutor executor;
        Arena(std::shared_ptr<const core::CachedPlan> p,
              const native::NativeConfig &ncfg)
            : plan(std::move(p)),
              fabric(plan->initWords, ncfg.spinLimit,
                     native::WakePolicy::sharded),
              data(plan->programs), executor(fabric, data, ncfg)
        {
            fabric.enableEpochReuse();
        }
    };
    native::NativeConfig ncfg = serveConfig().native;
    ncfg.numThreads = kLanes;
    ncfg.profile = true;
    std::vector<std::unique_ptr<Arena>> arenas;
    for (const Source &src : sources)
        arenas.push_back(std::make_unique<Arena>(
            service.plan(src.loop, src.kind, src.config), ncfg));

    NativeLeg leg;
    std::barrier sync_point(kLanes);
    Arena *work = nullptr;
    native::Deadline deadline{};
    bool done = false;
    std::thread member([&] {
        for (;;) {
            sync_point.arrive_and_wait(); // work published
            if (done)
                return;
            work->executor.runLane(work->plan->programs, 1, deadline);
            sync_point.arrive_and_wait(); // lane finished
        }
    });
    for (std::size_t k = 0; k < requests; ++k) {
        work = arenas[rng.below(arenas.size())].get();
        work->fabric.beginEpoch();
        work->data.clearAll();
        work->executor.beginRun(kLanes, false);
        auto t0 = Clock::now();
        deadline = t0 + std::chrono::milliseconds(serveConfig().requestTimeoutMs);
        sync_point.arrive_and_wait();
        work->executor.runLane(work->plan->programs, 0, deadline);
        sync_point.arrive_and_wait();
        auto wall = Clock::now() - t0;
        native::NativeRunResult run = work->executor.finishRun(
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(wall)
                    .count()));
        ++r.attempted;
        if (!run.completed || !run.errors.empty()) {
            ++r.failed;
            r.fail("serve: native leg run failed");
            continue;
        }
        leg.runMs.push_back(static_cast<double>(run.wallNanos) / 1e6);
        leg.wallNs += static_cast<double>(run.wallNanos);
        leg.syncOps += static_cast<double>(run.syncOps);
        leg.waits += static_cast<double>(run.waits);
        leg.parks += static_cast<double>(run.parks);
        leg.faRetries += static_cast<double>(run.faRetries);
        leg.waitNs.merge(run.waitNs);
        leg.parkWakeNs.merge(run.parkWakeNs);
    }
    done = true;
    sync_point.arrive_and_wait();
    member.join();
    return leg;
}

} // namespace

Result
runServeOpenLoop(const Args &args)
{
    Result r;
    std::vector<Source> sources = planSources(r);
    if (sources.empty())
        return r;

    // Each set-up is a fresh service instance (fresh gang threads,
    // so a fresh thread placement) that serves its share of the
    // isolated rounds and kBurstsPerInstance bursts.
    Rng rng(args.seed ^ 0x5e57e5eedull);
    std::vector<double> setup_s, cold_ms, burst_s, raw_burst_s;
    std::vector<std::vector<double>> alone(sources.size());
    std::uint64_t burst_programs = 0;
    Setup live;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        live = setUp(sources, r);
        setup_s.push_back(live.seconds);
        cold_ms.push_back(live.coldPlanMs);
        auto rounds = isolatedRounds(*live.service, sources,
                                     kIsolatedRounds / kSetupReps, rng, r);
        for (std::size_t i = 0; i < sources.size(); ++i)
            alone[i].insert(alone[i].end(), rounds[i].begin(),
                            rounds[i].end());
        // A burst is CPU-bound: scale it to the reference host speed
        // (common.hh). Isolated latency is mostly the service's 2 ms
        // idle-flush timeout, which does not scale, so it stays raw.
        SpeedProbe probe;
        for (int b = 0; b < kBurstsPerInstance; ++b) {
            double raw = burst(*live.service, sources, kBurstRequests, rng,
                               burst_programs, r);
            raw_burst_s.push_back(raw);
            burst_s.push_back(raw * probe.factor());
        }
        if (rep + 1 < kSetupReps)
            live.service->stop();
    }
    r.set("setup_s", median(setup_s), "s");
    serve::DoacrossService &service = *live.service;

    const double S = args.seconds;
    Phase low = openLoop(service, sources, kLowRate, 0.12 * S, rng, r);
    Phase high = openLoop(service, sources, kHighRate, 0.2 * S, rng, r);

    double burst_total = 0;
    for (double b : raw_burst_s)
        burst_total += b;

    double max_rps = args.trace ? 0.0
                                : maxRate(service, sources, 0.16 * S, rng, r);

    // The gated figures avoid queueing: on a host whose speed swings
    // by 1.6x, an open-loop rate's latency swings with it.
    std::vector<double> plan_median, all_alone;
    for (const auto &v : alone) {
        plan_median.push_back(median(v));
        all_alone.insert(all_alone.end(), v.begin(), v.end());
    }
    r.set("pass_s", median(burst_s), "s");
    r.set("pass_s.raw", median(raw_burst_s), "s");
    r.set("scenario_ms_geomean", geomean(plan_median), "ms");
    r.set("op_ms_p50", quantile(all_alone, 0.50), "ms");
    r.set("op_ms_p99", quantile(all_alone, 0.99), "ms");
    r.set("serve_p50_ms.high.windowed", windowed(high, 0.50), "ms");
    r.set("serve_p99_ms.high.windowed", windowed(high, 0.99), "ms");
    r.set("serve_p50_ms.low", quantile(low.latencyMs, 0.50), "ms");
    r.set("serve_p99_ms.low", quantile(low.latencyMs, 0.99), "ms");
    r.set("serve_p50_ms.high", quantile(high.latencyMs, 0.50), "ms");
    r.set("serve_p99_ms.high", quantile(high.latencyMs, 0.99), "ms");
    r.set("serve_samples.low", static_cast<double>(low.latencyMs.size()),
          "count");
    r.set("serve_samples.high", static_cast<double>(high.latencyMs.size()),
          "count");
    r.set("serve_programs_per_s",
          static_cast<double>(burst_programs) / burst_total, "1/s");
    r.set("serve_requests_per_s",
          static_cast<double>(burst_s.size() * kBurstRequests) / burst_total,
          "1/s");
    if (!args.trace)
        r.set("serve_max_rps", max_rps, "1/s");

    if (args.trace) {
        serve::ServiceStats st = service.stats();
        r.set("serve.isolated_ms", median(all_alone), "ms");
        r.set("serve.publish_ms_p50", quantile(high.publishMs, 0.5), "ms");
        r.set("serve.submit_us", median(high.submitUs), "us");
        r.set("serve.generator_late_ms_p99", quantile(high.lateMs, 0.99),
              "ms");
        std::vector<double> lookup_us;
        for (int k = 0; k < 2000; ++k) {
            const Source &src = sources[rng.below(sources.size())];
            lookup_us.push_back(1e3 * timeMs([&] {
                                    service.plan(src.loop, src.kind,
                                                 src.config);
                                }));
        }
        r.set("serve.plan_lookup_us", median(lookup_us), "us");
        r.set("serve.cold_plan_ms", median(cold_ms), "ms");
        r.set("serve.plan_cache_hit_rate", st.planCacheHitRate, "ratio");
        r.set("serve.epochs_begun", static_cast<double>(st.epochsBegun),
              "count");
        r.set("serve.verify_samples", static_cast<double>(st.verifySamples),
              "count");
        if (st.verifyFailures != 0 || st.failed != 0)
            r.fail("serve: service counted failed or unverified requests");

        constexpr std::size_t kNativeRequests = 400;
        NativeLeg leg = nativeLeg(service, sources, kNativeRequests, rng, r);
        r.set("native.run_ms", median(leg.runMs), "ms");
        r.set("native.ns_per_sync_op",
              leg.syncOps > 0 ? leg.wallNs / leg.syncOps : 0.0, "ns");
        r.set("native.park_frac", leg.waits > 0 ? leg.parks / leg.waits : 0.0,
              "ratio");
        r.set("native.wait_ns_p50",
              static_cast<double>(leg.waitNs.percentile(0.5)), "ns");
        r.set("native.park_wake_ns_p50",
              static_cast<double>(leg.parkWakeNs.percentile(0.5)), "ns");
        r.set("native.fa_retries",
              leg.faRetries / static_cast<double>(kNativeRequests), "count");
    } else {
        serve::ServiceStats st = service.stats();
        if (st.verifySamples == 0)
            r.fail("serve: no request was verification-sampled");
        if (st.verifyFailures != 0 || st.failed != 0)
            r.fail("serve: service counted failed or unverified requests");
    }
    service.stop();
    return r;
}

} // namespace perf
