#include "sim/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <mutex>
#include <unordered_map>

#include "sim/log.h"
#include "snapshot/archive.h"

namespace hh::sim {

namespace {

/** SplitMix64 step, used only for seeding. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t x = seed ^ (stream * 0xD2B74407B1CE6E93ULL + 1);
    for (auto &s : s_)
        s = splitmix64(x);
}

void
Rng::zeroBound()
{
    panic("Rng::uniformInt: n must be > 0");
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    if (lo > hi)
        panic("Rng::uniformInt: lo > hi");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(uniformInt(span));
}

double
Rng::exponential(double mean)
{
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

double
Rng::normal()
{
    if (has_cached_normal_) {
        has_cached_normal_ = false;
        return cached_normal_;
    }
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cached_normal_ = r * std::sin(theta);
    has_cached_normal_ = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::lognormal(double mu, double sigma)
{
    return std::exp(normal(mu, sigma));
}

void
Rng::serialize(hh::snap::Archive &ar)
{
    for (auto &s : s_)
        ar.io(s);
    ar.io(has_cached_normal_);
    ar.io(cached_normal_);
}

ZipfSampler::ZipfSampler(std::size_t n, double theta)
{
    if (n == 0)
        panic("ZipfSampler: n must be > 0");
    cdf_.resize(n);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
        cdf_[i] = sum;
    }
    for (auto &v : cdf_)
        v /= sum;

    // One walk over buckets and CDF values together: item i is
    // the guide of every bucket whose lower edge lies in
    // (cdf[i - 1], cdf[i]].
    const std::size_t buckets = std::bit_ceil(4 * n);
    guide_.resize(buckets);
    std::size_t i = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
        const double lo =
            static_cast<double>(b) / static_cast<double>(buckets);
        while (i < n && cdf_[i] < lo)
            ++i;
        guide_[b] = static_cast<std::uint32_t>(i);
    }
}

std::shared_ptr<const ZipfSampler>
sharedZipfSampler(std::size_t n, double theta)
{
    struct Key
    {
        std::size_t n;
        std::uint64_t theta_bits; //!< Exact-bits key, no FP compare.
        bool operator==(const Key &o) const
        {
            return n == o.n && theta_bits == o.theta_bits;
        }
    };
    struct KeyHash
    {
        std::size_t operator()(const Key &k) const
        {
            return std::hash<std::size_t>{}(k.n) * 0x9E3779B97F4A7C15ULL ^
                   std::hash<std::uint64_t>{}(k.theta_bits);
        }
    };
    static std::mutex mu;
    static std::unordered_map<Key, std::weak_ptr<const ZipfSampler>,
                              KeyHash>
        cache;

    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(theta));
    std::memcpy(&bits, &theta, sizeof(bits));
    const Key key{n, bits};

    const std::lock_guard<std::mutex> lock(mu);
    if (auto it = cache.find(key); it != cache.end()) {
        if (auto hit = it->second.lock())
            return hit;
    }
    auto made = std::make_shared<const ZipfSampler>(n, theta);
    cache[key] = made;
    return made;
}

} // namespace hh::sim
