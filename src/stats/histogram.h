/**
 * @file
 * Logarithmic histogram for simulation statistics.
 */

#ifndef HH_STATS_HISTOGRAM_H
#define HH_STATS_HISTOGRAM_H

#include <cstdint>
#include <string>
#include <vector>

#include "snapshot/archive.h"

namespace hh::stats {

/**
 * Power-of-two logarithmic histogram for latency-like values that
 * span several orders of magnitude.
 */
class LogHistogram
{
  public:
    /**
     * @param buckets Number of buckets; bucket i covers
     *                [2^i, 2^(i+1)) with bucket 0 catching [0, 2).
     */
    explicit LogHistogram(std::size_t buckets = 48);

    void add(double v);

    std::uint64_t bucketCount(std::size_t i) const;
    std::size_t numBuckets() const { return counts_.size(); }
    std::uint64_t totalCount() const { return total_; }

    /** Inclusive lower edge of bucket @p i: 0, 2, 4, 8, ..., 2^i. */
    static double bucketLow(std::size_t i);

    /** All bucket counts (fleet aggregation reads these as deltas). */
    const std::vector<std::uint64_t> &counts() const { return counts_; }

    /** Bucket-wise sum; bucket counts must match (panics otherwise). */
    void merge(const LogHistogram &other);

    /**
     * Nearest-rank percentile estimate, @p p clamped to [0, 100]: the
     * lower edge of the bucket holding the sample of rank
     * max(1, ceil(p/100 * total)). p=0 selects the first non-empty
     * bucket, p=100 the last. Returns 0 when the histogram is empty.
     */
    double percentile(double p) const;

    void serialize(hh::snap::Archive &ar);

  private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

/**
 * Nearest-rank percentile over an external bucket-count vector laid
 * out in LogHistogram geometry — used on merged fleet bucket deltas
 * without materializing a LogHistogram. Returns the selected bucket's
 * lower edge, 0 when the counts sum to zero.
 */
double logBucketPercentile(const std::vector<std::uint64_t> &counts,
                           double p);

/** Add @p from into @p into bucket-wise, growing @p into to fit. */
void addBucketCounts(std::vector<std::uint64_t> &into,
                     const std::vector<std::uint64_t> &from);

} // namespace hh::stats

#endif // HH_STATS_HISTOGRAM_H
