/**
 * @file
 * Shared plumbing of the psync_perf harness: clock helpers, raw-
 * sample statistics, the seeded RNG, and the result/metric sink
 * every workload fills.
 *
 * Percentiles are always computed from raw samples (nearest-rank
 * on the sorted vector), never from core::LogHistogram, whose
 * percentiles are power-of-two bucket bounds.
 */

#ifndef PSYNC_PERFBENCH_COMMON_HH
#define PSYNC_PERFBENCH_COMMON_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perf {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point from)
{
    return std::chrono::duration<double>(Clock::now() - from).count();
}

inline double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from)
        .count();
}

/** Time one call, in milliseconds. */
template <typename F>
double
timeMs(F &&f)
{
    auto t0 = Clock::now();
    f();
    return msBetween(t0, Clock::now());
}

/** q-quantile (0..1) of raw samples, nearest rank; 0 when empty. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double rank = std::ceil(q * static_cast<double>(v.size()));
    std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

inline double
median(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    std::size_t n = s.size();
    return n % 2 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

/** Geometric mean of positive values; 0 when empty. */
inline double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(std::max(x, 1e-12));
    return std::exp(log_sum / static_cast<double>(v.size()));
}

/** splitmix64: the harness's only source of randomness. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in (0, 1]. */
    double
    unit()
    {
        return (static_cast<double>(next() >> 11) + 1.0) *
               (1.0 / 9007199254740992.0);
    }

    std::size_t
    below(std::size_t n)
    {
        return static_cast<std::size_t>(next() % n);
    }

    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    std::uint64_t state_;
};

/** Command-line knobs every workload sees. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/**
 * What a workload hands back: the correctness verdict, operation
 * counts, and named metrics with units. `report` holds every metric
 * the workload measures (printed for people); the final JSON line
 * carries the subset BENCHMARK.json names for the run's mode.
 */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        report;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        for (auto &m : report) {
            if (m.first == name) {
                m.second = {value, unit};
                return;
            }
        }
        report.push_back({name, {value, unit}});
    }

    /** Record a failed check; keeps the first few messages. */
    void
    fail(const std::string &why)
    {
        correct = false;
        if (problems.size() < 16)
            problems.push_back(why);
    }
};

Result runPaperSweep(const Args &args);
Result runScale1024(const Args &args);
Result runServeOpenLoop(const Args &args);
Result runFuzzCampaign(const Args &args);

/** Peak resident set of this process so far, in MiB. */
double peakRssMb();

/**
 * Host-speed calibration. The reference host's speed drifts by up to
 * 1.6x for seconds to minutes at a time, on all CPUs together, and a
 * 25 s run can sit wholly in a slow stretch. So the harness times a
 * fixed, self-contained kernel shaped like the simulator's hot loop
 * (a binary-heap event queue, hashed state updates, short-lived small
 * buffers) next to the measured work. CPU-bound host times are then
 * scaled by kCalibrationRefMs / (kernel time): they read as if the
 * kernel took its reference time, and a drift of the host's speed
 * cancels out. The kernel calls no psync code, so a change to the
 * program never moves it.
 */
constexpr double kCalibrationRefMs = 9.5;

/** Run the calibration kernel once; its wall time in ms. */
double calibrationMs();

/**
 * Scale factors for a sequence of timed steps: the kernel runs once
 * at construction and once after each step, and a step's factor
 * comes from the mean of the two runs either side of it.
 */
class SpeedProbe
{
  public:
    SpeedProbe() : last_(calibrationMs()) {}

    /** Close the step just timed; returns its scale factor. */
    double
    factor()
    {
        double next = calibrationMs();
        double f = kCalibrationRefMs / (0.5 * (last_ + next));
        last_ = next;
        factors_.push_back(f);
        return f;
    }

    /** Median factor so far: the host's speed relative to the
     * reference (below 1 means it ran slower). */
    double medianFactor() const { return median(factors_); }

  private:
    double last_;
    std::vector<double> factors_;
};

} // namespace perf

#endif // PSYNC_PERFBENCH_COMMON_HH
