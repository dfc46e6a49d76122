#include "stats/percentile.h"

#include <algorithm>
#include <cmath>

#include "sim/log.h"

namespace hh::stats {

void
LatencyRecorder::record(double v)
{
    samples_.push_back(v);
    sorted_ = false;
}

double
LatencyRecorder::mean() const
{
    if (samples_.empty())
        return 0;
    double s = 0;
    for (double v : samples_)
        s += v;
    return s / static_cast<double>(samples_.size());
}

void
LatencyRecorder::ensureSorted() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double
LatencyRecorder::percentile(double p) const
{
    if (p < 0 || p > 100)
        hh::sim::panic("LatencyRecorder::percentile: p out of range: ", p);
    if (samples_.empty())
        return 0;
    ensureSorted();
    if (samples_.size() == 1)
        return samples_[0];
    // Linear interpolation between closest ranks.
    const double rank =
        p / 100.0 * static_cast<double>(samples_.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = static_cast<std::size_t>(std::ceil(rank));
    const double frac = rank - std::floor(rank);
    return samples_[lo] + (samples_[hi] - samples_[lo]) * frac;
}

double
LatencyRecorder::max() const
{
    if (samples_.empty())
        return 0;
    ensureSorted();
    return samples_.back();
}

std::vector<double>
empiricalCdf(std::vector<double> samples, const std::vector<double> &xs)
{
    std::sort(samples.begin(), samples.end());
    std::vector<double> out;
    out.reserve(xs.size());
    for (double x : xs) {
        const auto it =
            std::upper_bound(samples.begin(), samples.end(), x);
        out.push_back(samples.empty()
                          ? 0.0
                          : static_cast<double>(it - samples.begin()) /
                                static_cast<double>(samples.size()));
    }
    return out;
}

ReplicationStats
replicationStats(const std::vector<double> &values)
{
    ReplicationStats r;
    r.n = values.size();
    if (r.n == 0)
        return r;
    double sum = 0;
    for (double v : values)
        sum += v;
    r.mean = sum / static_cast<double>(r.n);
    if (r.n < 2)
        return r;
    double sq = 0;
    for (double v : values)
        sq += (v - r.mean) * (v - r.mean);
    r.sd = std::sqrt(sq / static_cast<double>(r.n - 1));
    r.ci95 = 1.96 * r.sd / std::sqrt(static_cast<double>(r.n));
    return r;
}

} // namespace hh::stats
