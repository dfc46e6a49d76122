/**
 * @file
 * Exact-percentile latency recorder.
 *
 * The paper reports P50 (median) and P99 tail latency over 100 K
 * invocations; at these sample counts storing every sample and sorting
 * on demand is both exact and cheap, so that is what we do.
 */

#ifndef HH_STATS_PERCENTILE_H
#define HH_STATS_PERCENTILE_H

#include <cstdint>
#include <string>
#include <vector>

#include "snapshot/archive.h"

namespace hh::stats {

/**
 * Stores raw latency samples and answers exact percentile queries.
 */
class LatencyRecorder
{
  public:
    explicit LatencyRecorder(std::string name = "")
        : name_(std::move(name))
    {}

    /** Record one latency sample (any unit; callers pick one). */
    void record(double v);

    /** Number of recorded samples. */
    std::size_t count() const { return samples_.size(); }

    /** Arithmetic mean of all samples; 0 when empty. */
    double mean() const;

    /**
     * Exact percentile by nearest-rank interpolation.
     *
     * @param p Percentile in [0, 100].
     * @return 0 when no samples were recorded.
     */
    double percentile(double p) const;

    /** Convenience accessors. */
    double p50() const { return percentile(50.0); }
    double p99() const { return percentile(99.0); }
    double max() const;

    const std::string &name() const { return name_; }

    /** Read-only access to the raw samples (tests, CDF dumps). */
    const std::vector<double> &samples() const { return samples_; }

    /** Save/restore the sample buffer verbatim (incl. sort state). */
    void
    serialize(hh::snap::Archive &ar)
    {
        ar.io(samples_);
        ar.io(sorted_);
    }

  private:
    /** Sort the sample buffer if new samples arrived since last sort. */
    void ensureSorted() const;

    std::string name_;
    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

/**
 * Compute the empirical CDF of a sample set at given x positions.
 *
 * @param samples Any sample collection (will be copied and sorted).
 * @param xs      Query positions.
 * @return        For each x, the fraction of samples <= x.
 */
std::vector<double> empiricalCdf(std::vector<double> samples,
                                 const std::vector<double> &xs);

/**
 * Summary of one metric replicated across independent seeds.
 *
 * The half-width is the normal-approximation 95% confidence interval
 * of the mean (1.96 * sd / sqrt(n)); with the handful of seeds
 * multi-seed experiments use it is indicative, not exact, and is 0
 * for n < 2.
 */
struct ReplicationStats
{
    std::size_t n = 0;
    double mean = 0;
    double sd = 0;   //!< Sample standard deviation (n-1).
    double ci95 = 0; //!< Half-width of the 95% CI of the mean.
};

/** Mean / sd / CI of one metric's per-seed values. */
ReplicationStats replicationStats(const std::vector<double> &values);

} // namespace hh::stats

#endif // HH_STATS_PERCENTILE_H
