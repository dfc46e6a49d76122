#include "stats/histogram.h"

#include <algorithm>
#include <cmath>

#include "sim/log.h"

namespace hh::stats {

namespace {

/**
 * Shared nearest-rank walk: index of the bucket holding the sample of
 * rank max(1, ceil(p/100 * total)); counts must sum to total > 0.
 */
std::size_t
percentileBucket(const std::vector<std::uint64_t> &counts,
                 std::uint64_t total, double p)
{
    p = std::clamp(p, 0.0, 100.0);
    auto rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(total)));
    rank = std::max<std::uint64_t>(rank, 1);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        seen += counts[i];
        if (seen >= rank)
            return i;
    }
    return counts.size() - 1;
}

} // namespace

LogHistogram::LogHistogram(std::size_t buckets) : counts_(buckets, 0)
{
    if (buckets == 0)
        hh::sim::panic("LogHistogram: buckets must be > 0");
}

void
LogHistogram::add(double v)
{
    std::size_t idx = 0;
    if (v >= 2.0)
        idx = static_cast<std::size_t>(std::floor(std::log2(v)));
    idx = std::min(idx, counts_.size() - 1);
    ++counts_[idx];
    ++total_;
}

std::uint64_t
LogHistogram::bucketCount(std::size_t i) const
{
    if (i >= counts_.size())
        hh::sim::panic("LogHistogram::bucketCount: index out of range");
    return counts_[i];
}

double
LogHistogram::bucketLow(std::size_t i)
{
    if (i == 0)
        return 0;
    return std::ldexp(1.0, static_cast<int>(i));
}

void
LogHistogram::merge(const LogHistogram &other)
{
    if (other.counts_.size() != counts_.size())
        hh::sim::panic("LogHistogram::merge: geometry mismatch");
    for (std::size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    total_ += other.total_;
}

double
LogHistogram::percentile(double p) const
{
    if (total_ == 0)
        return 0;
    return bucketLow(percentileBucket(counts_, total_, p));
}

void
LogHistogram::serialize(hh::snap::Archive &ar)
{
    std::uint64_t n = counts_.size();
    ar.io(n);
    if (ar.loading() && n != counts_.size()) {
        ar.fail("LogHistogram: bucket-count mismatch on load");
        return;
    }
    for (auto &c : counts_)
        ar.io(c);
    ar.io(total_);
}

double
logBucketPercentile(const std::vector<std::uint64_t> &counts, double p)
{
    std::uint64_t total = 0;
    for (const auto c : counts)
        total += c;
    if (total == 0)
        return 0;
    return LogHistogram::bucketLow(percentileBucket(counts, total, p));
}

void
addBucketCounts(std::vector<std::uint64_t> &into,
                const std::vector<std::uint64_t> &from)
{
    if (into.size() < from.size())
        into.resize(from.size(), 0);
    for (std::size_t i = 0; i < from.size(); ++i)
        into[i] += from[i];
}

} // namespace hh::stats
