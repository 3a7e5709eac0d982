/**
 * @file
 * Lightweight statistics package.
 *
 * Components register named counters/histograms into a StatGroup; the
 * runner dumps them as `group.name value` rows. The package is
 * intentionally simple: scalar counters, averages, and fixed-bucket
 * histograms cover everything the paper's evaluation reports.
 */

#ifndef DAPSIM_COMMON_STATS_HH
#define DAPSIM_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace dapsim
{

/** Monotonic scalar counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    void set(std::uint64_t v) { value_ = v; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** Running average of submitted samples. */
class Average
{
  public:
    void
    sample(double v)
    {
        sum_ += v;
        ++count_;
    }

    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }

    void
    reset()
    {
        sum_ = 0.0;
        count_ = 0;
    }

    /** Overwrite the accumulator (checkpoint restore). */
    void
    restoreState(double sum, std::uint64_t count)
    {
        sum_ = sum;
        count_ = count;
    }

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
};

/**
 * Named collection of stats owned by a component.
 *
 * The group stores pointers to stats that live inside the component, so
 * a StatGroup must not outlive its component.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    void addCounter(const std::string &n, const Counter *c);
    void addAverage(const std::string &n, const Average *a);

    /** Dump `group.name value` rows. */
    void dump(std::ostream &os) const;

    const std::string &name() const { return name_; }

    /** Look up a registered counter value by name (0 if absent). */
    std::uint64_t counterValue(const std::string &n) const;

    /** Look up a registered average mean by name (0 if absent). */
    double averageValue(const std::string &n) const;

    /**
     * Columnar access for the time-series sampler (see src/obs/):
     * qualified `group.name` column labels and the matching values, in
     * a stable (alphabetical, counters before averages) order.
     */
    void appendColumnNames(std::vector<std::string> &out) const;
    void appendValues(std::vector<double> &out) const;

  private:
    std::string name_;
    std::map<std::string, const Counter *> counters_;
    std::map<std::string, const Average *> averages_;
};

} // namespace dapsim

#endif // DAPSIM_COMMON_STATS_HH
