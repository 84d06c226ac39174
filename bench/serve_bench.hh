/**
 * @file
 * Runtime-service campaigns: sustained mixed traffic against
 * serve::DoacrossService, recorded as kind:"serve" trajectory
 * records.
 *
 * A campaign is one cell per traffic mix. Each trial of a cell
 * boots a fresh service (persistent gangs, plan cache, epoch-reused
 * fabrics), submits `requests` executions drawn from the bench
 * registry's scenarios as fast as the queue takes them, waits for
 * the service to drain, and snapshots throughput and plan-cache hit
 * rate. Requests wait in the queue for most of a trial, so a cell
 * measures throughput only; perfbench's serve-open-loop workload
 * measures latency from scheduled arrivals.
 *
 * A process's first trial runs cold (its first thread spawns, page
 * faults and plan builds), so a campaign first runs one discarded
 * warm-up trial per mix, then `trials` trials per mix, interleaved
 * across mixes so a drift of the host's speed reaches every mix
 * alike. A cell reports the median programs/s with its quartiles
 * and the host's CPU count.
 *
 * Traffic mixes:
 *  - uniform: requests draw uniformly over the matched scenarios'
 *    plans (steady multi-tenant load, every arena warm);
 *  - hotkey: 90% of requests hit one hot plan, the rest spread
 *    uniformly (cache/arena skew, the service's best case and the
 *    fabric's most contended);
 *  - bursty: uniform draw, but submissions arrive in bursts with a
 *    full drain between bursts (the queue repeatedly fills and
 *    empties).
 *
 * Per-request init-cost amortization (the paper's section 4
 * argument, measured at service scale): every request logically
 * reinitializes its scheme's sync variables, but pays one epoch
 * bump instead of |initWords| writes — the throughput delta
 * against the per-run native backend in the same trajectory file
 * is the measured claim.
 */

#ifndef PSYNC_BENCH_SERVE_BENCH_HH
#define PSYNC_BENCH_SERVE_BENCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/json.hh"
#include "serve/service.hh"

namespace psync {
namespace bench {

/** Campaign shape (one cell per traffic mix). */
struct ServeCampaignOptions
{
    /** Requests per cell. */
    std::uint64_t requests = 800;
    unsigned gangs = 2;
    unsigned gangSize = 4;
    std::uint64_t seed = 1;
    /** Scenario glob the traffic draws plans from. */
    std::string scenarioGlob = "fig21-n256/*";
    /** Full verification every Nth request per gang (0 = never). */
    unsigned verifySampleEvery = 64;
    std::uint64_t requestTimeoutMs = 10000;
    /** Requests per burst in the bursty mix. */
    std::uint64_t burstSize = 128;
    /** Mixes to run; empty = all three. */
    std::vector<std::string> mixes;
    /** Measured trials per mix. */
    unsigned trials = 5;
    /** Run and discard one warm-up trial per mix first. */
    bool warmup = true;
};

/** Result of one campaign cell (one mix). */
struct ServeCellResult
{
    std::string mix;
    unsigned gangs = 0;
    unsigned gangSize = 0;
    std::uint64_t requests = 0;
    std::uint64_t failed = 0;
    std::uint64_t programsRun = 0;
    std::uint64_t verifySamples = 0;
    std::uint64_t verifyFailures = 0;
    std::uint64_t epochsBegun = 0;
    std::uint64_t planCacheHits = 0;
    std::uint64_t planCacheMisses = 0;
    double planCacheHitRate = 0.0;
    /**
     * Host wall time, submission through drain, summed over the
     * trials.
     */
    std::uint64_t hostNanos = 0;
    /** Programs/s of each measured trial, in run order. */
    std::vector<double> trialRates;
    /** CPUs the host offers (std::thread::hardware_concurrency). */
    unsigned hostCpus = 0;

    /** Median programs/s over the trials. */
    double programsPerSec() const { return rateQuantile(0.5); }

    /**
     * Quantile `q` of the trial rates, interpolated between order
     * statistics (0 with no trials).
     */
    double rateQuantile(double q) const;

    /**
     * Fold one more trial of this cell in: failure and
     * verification counts and host time add up, and its rate joins
     * trialRates.
     */
    void addTrial(const ServeCellResult &trial);

    /** Record id: "serve/<mix>#g<gangs>x<gangSize>". */
    std::string recordId() const;
    /** One kind:"serve" trajectory record. */
    core::json::Value toJson() const;
};

/** A full campaign: every cell plus grid-level totals. */
struct ServeCampaignResult
{
    std::vector<ServeCellResult> cells;
    std::uint64_t totalRequests = 0;
    std::uint64_t totalPrograms = 0;
    std::uint64_t totalFailed = 0;
    std::uint64_t totalVerifyFailures = 0;
    /** Scenario ids the traffic drew from. */
    std::vector<std::string> sources;

    bool
    ok() const
    {
        return totalFailed == 0 && totalVerifyFailures == 0 &&
               !cells.empty();
    }

    /** Campaign summary record ("serve/campaign#..."). */
    core::json::Value toJson() const;
};

/**
 * Run the campaign grid. Aborts the process when the scenario glob
 * matches nothing. Deterministic plan-draw sequence per (seed,
 * requests); host timings are whatever the machine gives.
 */
ServeCampaignResult
runServeCampaign(const ServeCampaignOptions &opts);

} // namespace bench
} // namespace psync

#endif // PSYNC_BENCH_SERVE_BENCH_HH
