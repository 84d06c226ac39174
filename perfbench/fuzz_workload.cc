/**
 * @file
 * The `fuzz-campaign` workload: a seeded `psync_bench --fuzz`-style
 * differential campaign at --jobs 1. Every case runs the full
 * matrix (every scheme x sim/native x passes off/on against the
 * sequential oracle) through bench::runFuzzCase; native legs use
 * 2-4 threads, fresh threads and freshly initialized fabrics per
 * run. Hundreds of tiny programs make per-run fixed costs dominate.
 *
 * The traced run times the layers a case goes through from
 * outside: the generator, the sequential oracle, the re-composed
 * sim run (see layers.hh), core::runDoacross as a whole, and the
 * native backend with host-clock profiling on.
 */

#include "bench/common.hh"
#include "bench/fuzz.hh"
#include "common.hh"
#include "core/value_trace.hh"
#include "layers.hh"
#include "native/runner.hh"
#include "workloads/fuzz.hh"

namespace perf {

namespace {

using namespace psync;

/** Cases per timed block (one `pass`). */
constexpr std::uint64_t kBlock = 50;
/** Warm-up cases run by each set-up. */
constexpr std::uint64_t kWarmCases = 8;
constexpr int kSetupReps = 3;
/** Cases re-run at the end to prove the campaign deterministic. */
constexpr std::uint64_t kRepeatCases = 4;

/**
 * Fixed-seed reference campaign: its case digest must never change
 * (it folds every case's sequential image and simulated cycles).
 */
constexpr std::uint64_t kRefSeed = 2026;
constexpr std::uint64_t kRefCases = 16;
constexpr std::uint64_t kRefDigest = 0xb279dce43b710c63ull;

bench::FuzzOptions
campaignOptions(std::uint64_t seed)
{
    bench::FuzzOptions opts;
    opts.seed = seed;
    opts.jobs = 1;
    opts.shrink = false;
    return opts;
}

/** Run case `index`, counting it; returns its outcome. */
bench::FuzzCaseOutcome
runCase(const bench::FuzzOptions &opts, std::uint64_t index, Result &r)
{
    dep::Loop loop = workloads::makeFuzzLoop(opts.seed, index, opts.limits);
    bench::FuzzCaseOutcome out = bench::runFuzzCase(
        loop, bench::fuzzCaseConfig(opts.seed, index), opts, index);
    ++r.attempted;
    if (!out.ok()) {
        ++r.failed;
        r.fail("fuzz: case " + std::to_string(index) + ": " +
               out.failures[0]);
    }
    return out;
}

/** Set-up, the fixed-seed digest check and the repeat check. */
void
checkCampaign(const bench::FuzzOptions &opts,
              const std::vector<bench::FuzzCaseOutcome> &first, Result &r)
{
    for (std::uint64_t i = 0; i < first.size(); ++i) {
        Result scratch;
        bench::FuzzCaseOutcome again = runCase(opts, i, scratch);
        ++r.attempted;
        if (again.imageDigest != first[i].imageDigest ||
            again.cyclesDigest != first[i].cyclesDigest) {
            ++r.failed;
            r.fail("fuzz: case " + std::to_string(i) +
                   " is not deterministic across reruns");
        }
    }

    bench::FuzzOptions ref = campaignOptions(kRefSeed);
    ref.count = kRefCases;
    bench::FuzzCampaignResult campaign = bench::runFuzzCampaign(ref);
    ++r.attempted;
    if (!campaign.ok() || campaign.caseDigest != kRefDigest) {
        ++r.failed;
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "fuzz: reference campaign digest %016llx != %016llx",
                      static_cast<unsigned long long>(campaign.caseDigest),
                      static_cast<unsigned long long>(kRefDigest));
        r.fail(buf);
    }
}

double
setUp(const bench::FuzzOptions &opts, Result &r)
{
    auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kWarmCases; ++i)
        runCase(opts, i, r);
    return secondsSince(t0);
}

Result
runUntraced(const Args &args)
{
    Result r;
    bench::FuzzOptions opts = campaignOptions(args.seed);
    std::vector<double> setup_s;
    for (int rep = 0; rep < kSetupReps; ++rep)
        setup_s.push_back(setUp(opts, r));
    r.set("setup_s", median(setup_s), "s");

    std::vector<double> case_ms, block_s;
    std::vector<bench::FuzzCaseOutcome> first;
    std::uint64_t index = 0;
    auto t_start = Clock::now();
    do {
        auto t_block = Clock::now();
        for (std::uint64_t k = 0; k < kBlock; ++k, ++index) {
            auto t0 = Clock::now();
            bench::FuzzCaseOutcome out = runCase(opts, index, r);
            case_ms.push_back(msBetween(t0, Clock::now()));
            if (index < kRepeatCases)
                first.push_back(std::move(out));
        }
        block_s.push_back(secondsSince(t_block));
    } while (secondsSince(t_start) < args.seconds);
    const double timed_s = secondsSince(t_start);

    r.set("pass_s", median(block_s), "s");
    r.set("scenario_ms_geomean", geomean(case_ms), "ms");
    r.set("op_ms_p50", quantile(case_ms, 0.50), "ms");
    r.set("op_ms_p99", quantile(case_ms, 0.99), "ms");
    r.set("fuzz_cases_per_s", static_cast<double>(index) / timed_s, "1/s");

    checkCampaign(opts, first, r);
    return r;
}

/** Native-layer accumulators of one traced block. */
struct NativePass
{
    double runMs = 0, wallNs = 0, syncOps = 0, waits = 0, parks = 0;
    double faRetries = 0, seqImageMs = 0, runDoacrossMs = 0, genMs = 0;
    double runs = 0;
    core::LogHistogram waitNs, parkWakeNs;
};

Result
runTraced(const Args &args)
{
    Result r;
    bench::FuzzOptions opts = campaignOptions(args.seed);
    std::vector<LayerPass> passes;
    std::vector<NativePass> natives;
    SpeedProbe probe;
    std::uint64_t index = 0;
    auto t_start = Clock::now();
    do {
        LayerPass lp;
        NativePass np;
        for (std::uint64_t k = 0; k < kBlock; ++k, ++index) {
            dep::Loop loop;
            np.genMs += timeMs([&] {
                loop = workloads::makeFuzzLoop(opts.seed, index, opts.limits);
            });
            np.seqImageMs += timeMs([&] { core::sequentialImage(loop); });
            const bench::FuzzCaseConfig ccfg =
                bench::fuzzCaseConfig(opts.seed, index);
            bool guarded = false;
            for (const auto &stmt : loop.body)
                guarded = guarded || stmt.guard.conditional();

            for (sync::SchemeKind kind : sync::allSyncSchemes()) {
                if (kind == sync::SchemeKind::instanceBased && guarded)
                    continue; // rejected by design, as in runFuzzCase
                core::RunConfig cfg =
                    bench::machineFor(kind, ccfg.procs, ccfg.numPcs);
                cfg.schedule = ccfg.schedule;
                cfg.chunkSize = ccfg.chunkSize;
                cfg.passes.eliminateRedundantWaits = true;
                cfg.passes.peephole = true;

                Recomposed rc = recompose([&] { return loop; }, kind, cfg, lp);
                ++r.attempted;
                if (!rc.verified || !rc.result.run.completed ||
                    !rc.result.violations.empty()) {
                    ++r.failed;
                    r.fail("fuzz: case " + std::to_string(index) + " " +
                           sync::schemeKindName(kind) +
                           ": re-composed sim run failed");
                    continue;
                }
                np.runDoacrossMs +=
                    timeMs([&] { core::runDoacross(loop, kind, cfg); });

                native::NativeConfig ncfg;
                ncfg.numThreads = ccfg.nativeThreads;
                ncfg.timingSeed = ccfg.timingSeed;
                ncfg.timeoutMs = opts.nativeTimeoutMs;
                ncfg.profile = true;
                native::NativeDoacrossResult nat;
                np.runMs += timeMs([&] {
                    nat = native::runDoacrossNative(loop, kind, cfg, ncfg);
                });
                ++r.attempted;
                if (!nat.correct()) {
                    ++r.failed;
                    r.fail("fuzz: case " + std::to_string(index) + " " +
                           sync::schemeKindName(kind) + ": native run failed");
                    continue;
                }
                np.runs += 1;
                np.wallNs += static_cast<double>(nat.run.wallNanos);
                np.syncOps += static_cast<double>(nat.run.syncOps);
                np.waits += static_cast<double>(nat.run.waits);
                np.parks += static_cast<double>(nat.run.parks);
                np.faRetries += static_cast<double>(nat.run.faRetries);
                np.waitNs.merge(nat.run.waitNs);
                np.parkWakeNs.merge(nat.run.parkWakeNs);
            }
        }
        lp.scale(probe.factor());
        passes.push_back(std::move(lp));
        natives.push_back(std::move(np));
    } while (secondsSince(t_start) < args.seconds);

    setLayerMetrics(r, passes);
    auto med = [&](auto field) {
        std::vector<double> v;
        for (const auto &np : natives)
            v.push_back(field(np));
        return median(v);
    };
    r.set("workloads.fuzz_gen_ms", med([](auto &p) { return p.genMs; }), "ms");
    r.set("core.seq_image_ms", med([](auto &p) { return p.seqImageMs; }),
          "ms");
    r.set("core.run_doacross_ms",
          med([](auto &p) { return p.runDoacrossMs; }), "ms");
    r.set("native.run_ms", med([](auto &p) { return p.runMs; }), "ms");
    r.set("native.ns_per_sync_op", med([](auto &p) {
              return p.syncOps > 0 ? p.wallNs / p.syncOps : 0.0;
          }),
          "ns");
    r.set("native.park_frac", med([](auto &p) {
              return p.waits > 0 ? p.parks / p.waits : 0.0;
          }),
          "ratio");
    r.set("native.wait_ns_p50", med([](auto &p) {
              return static_cast<double>(p.waitNs.percentile(0.5));
          }),
          "ns");
    r.set("native.park_wake_ns_p50", med([](auto &p) {
              return static_cast<double>(p.parkWakeNs.percentile(0.5));
          }),
          "ns");
    r.set("native.fa_retries", med([](auto &p) {
              return p.runs > 0 ? p.faRetries / p.runs : 0.0;
          }),
          "count");
    r.set("passes", static_cast<double>(passes.size()), "count");
    return r;
}

} // namespace

Result
runFuzzCampaign(const Args &args)
{
    return args.trace ? runTraced(args) : runUntraced(args);
}

} // namespace perf
