/**
 * @file
 * Lightweight statistics package modeled on gem5's: named scalar,
 * vector, and distribution statistics registered with a group and
 * dumped as text. The simulator components own their stats; run
 * results snapshot them into plain structs (see core/metrics.hh).
 */

#ifndef PSYNC_SIM_STATS_HH
#define PSYNC_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

namespace psync {
namespace sim {
namespace stats {

/**
 * A named, monotonically accumulated scalar statistic. The only
 * mutators are accumulation (+=, ++) and reset(): between two
 * resets the value never decreases, so deltas across dumps are
 * meaningful. Components that need to overwrite a level (a depth, a
 * high-water mark) use Gauge instead.
 */
class Scalar
{
  public:
    Scalar() = default;
    explicit Scalar(std::string stat_name) : name_(std::move(stat_name)) {}

    Scalar &operator+=(double v) { value_ += v; return *this; }
    Scalar &operator++() { value_ += 1; return *this; }

    void reset() { value_ = 0; }

    double value() const { return value_; }
    const std::string &name() const { return name_; }

  private:
    std::string name_;
    double value_ = 0;
};

/**
 * A named scalar that tracks a level rather than an accumulation:
 * set() overwrites, updateMax() keeps a high-water mark. Split from
 * Scalar so the accumulate-only contract above stays honest.
 */
class Gauge
{
  public:
    Gauge() = default;
    explicit Gauge(std::string stat_name) : name_(std::move(stat_name)) {}

    void set(double v) { value_ = v; }
    void updateMax(double v) { value_ = std::max(value_, v); }
    void reset() { value_ = 0; }

    double value() const { return value_; }
    const std::string &name() const { return name_; }

  private:
    std::string name_;
    double value_ = 0;
};

/** A fixed-size vector of scalar values (e.g., one per processor). */
class Vector
{
  public:
    Vector() = default;
    Vector(std::string stat_name, size_t n)
        : name_(std::move(stat_name)), values_(n, 0.0)
    {}

    void init(std::string stat_name, size_t n)
    {
        name_ = std::move(stat_name);
        values_.assign(n, 0.0);
    }

    double &operator[](size_t i) { return values_[i]; }
    double operator[](size_t i) const { return values_[i]; }

    size_t size() const { return values_.size(); }
    void reset() { std::fill(values_.begin(), values_.end(), 0.0); }

    double total() const
    {
        double sum = 0;
        for (double v : values_)
            sum += v;
        return sum;
    }

    double maxValue() const
    {
        double m = 0;
        for (double v : values_)
            m = std::max(m, v);
        return m;
    }

    double mean() const
    {
        return values_.empty() ? 0.0 : total() / values_.size();
    }

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::vector<double> values_;
};

/**
 * A simple sampled distribution tracking count, sum, min, max and
 * sum of squares, enough for mean and variance reporting.
 */
class Distribution
{
  public:
    Distribution() = default;
    explicit Distribution(std::string stat_name)
        : name_(std::move(stat_name))
    {}

    void
    sample(double v, std::uint64_t n = 1)
    {
        count_ += n;
        sum_ += v * n;
        squares_ += v * v * n;
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }

    void
    reset()
    {
        count_ = 0;
        sum_ = squares_ = 0;
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double minValue() const { return count_ ? min_ : 0.0; }
    double maxValue() const { return count_ ? max_ : 0.0; }

    double
    variance() const
    {
        if (count_ < 2)
            return 0.0;
        double m = mean();
        return squares_ / count_ - m * m;
    }

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::uint64_t count_ = 0;
    double sum_ = 0;
    double squares_ = 0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/** One-line text dump of a statistic (Group::dump's format). */
void dump(std::ostream &os, const Scalar &s);
void dump(std::ostream &os, const Gauge &g);
void dump(std::ostream &os, const Vector &v);
void dump(std::ostream &os, const Distribution &d);

/**
 * A registry of statistics owned elsewhere. Components register
 * their stats once (registerStats) and the group walks them for
 * text or machine-readable output; dumpJson() emits one JSON
 * object keyed by statistic name, the record format the benches'
 * --json flag writes.
 */
class Group
{
  public:
    void add(const Scalar &s) { scalars_.push_back(&s); }
    void add(const Gauge &g) { gauges_.push_back(&g); }
    void add(const Vector &v) { vectors_.push_back(&v); }
    void add(const Distribution &d) { dists_.push_back(&d); }

    size_t size() const
    {
        return scalars_.size() + gauges_.size() + vectors_.size() +
               dists_.size();
    }

    /** Text dump, one stat per line (same format as dump()). */
    void dump(std::ostream &os) const;

    /**
     * JSON dump: {"name": value, ...}; vectors become
     * {"total":..,"mean":..,"max":..,"values":[..]}, distributions
     * {"count":..,"mean":..,"min":..,"max":..}.
     */
    void dumpJson(std::ostream &os) const;

  private:
    std::vector<const Scalar *> scalars_;
    std::vector<const Gauge *> gauges_;
    std::vector<const Vector *> vectors_;
    std::vector<const Distribution *> dists_;
};

} // namespace stats
} // namespace sim
} // namespace psync

#endif // PSYNC_SIM_STATS_HH
