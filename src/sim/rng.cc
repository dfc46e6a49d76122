#include "sim/rng.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <mutex>
#include <unordered_map>

#include "sim/log.h"
#include "sim/prof.h"
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

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t x = seed ^ (stream * 0xD2B74407B1CE6E93ULL + 1);
    for (auto &s : s_)
        s = splitmix64(x);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t n)
{
    if (n == 0)
        panic("Rng::uniformInt: n must be > 0");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = max() - max() % n;
    std::uint64_t v;
    do {
        v = next();
    } while (v >= limit);
    return v % n;
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    if (lo > hi)
        panic("Rng::uniformInt: lo > hi");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(uniformInt(span));
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
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

    bucket_.resize(kIndexBuckets + 1);
    for (std::size_t b = 0; b <= kIndexBuckets; ++b) {
        const double lo = static_cast<double>(b) /
                          static_cast<double>(kIndexBuckets);
        bucket_[b] = static_cast<std::uint32_t>(
            std::lower_bound(cdf_.begin(), cdf_.end(), lo) -
            cdf_.begin());
    }
}

std::size_t
ZipfSampler::sampleAt(double u) const
{
    HH_PROF_SCOPE("workload.zipf_sample");
    // Narrow to the index slice containing u, then lower_bound
    // inside it: cdf_[bucket_[b]] is the first value >= b/B and u
    // lies in [b/B, (b+1)/B), so the answer is in
    // [bucket_[b], bucket_[b+1]] — the +1 below keeps the slice's
    // one-past-the-answer element searchable.
    std::size_t b = static_cast<std::size_t>(
        u * static_cast<double>(kIndexBuckets));
    b = std::min(b, kIndexBuckets - 1);
    const auto first = cdf_.begin() + bucket_[b];
    const auto last =
        cdf_.begin() +
        std::min<std::size_t>(bucket_[b + 1] + 1, cdf_.size());
    const auto it = std::lower_bound(first, last, u);
    return static_cast<std::size_t>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(),
                                 static_cast<std::ptrdiff_t>(cdf_.size()) -
                                     1));
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
