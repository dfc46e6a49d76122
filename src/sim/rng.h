/**
 * @file
 * Deterministic random-number generation for the simulator.
 *
 * Every stochastic component owns its own Rng instance seeded from the
 * experiment seed plus a component-specific stream id, so results are
 * reproducible and independent of event interleaving. The core
 * generator is xoshiro256** (public-domain algorithm by Blackman and
 * Vigna), seeded through SplitMix64.
 */

#ifndef HH_SIM_RNG_H
#define HH_SIM_RNG_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

namespace hh::snap {
class Archive;
} // namespace hh::snap

namespace hh::sim {

/**
 * xoshiro256** pseudo-random generator with distribution helpers.
 *
 * Satisfies the bare minimum of UniformRandomBitGenerator so it can
 * also be plugged into <random> adapters if ever needed.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /**
     * Construct a generator.
     *
     * @param seed   Experiment-level seed.
     * @param stream Component-specific stream id; different streams
     *               from the same seed are statistically independent.
     */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL,
                 std::uint64_t stream = 0);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }

    /** Next raw 64-bit value. */
    std::uint64_t operator()() { return next(); }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
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

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 random mantissa bits -> double in [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

    /**
     * Uniform integer in [0, n). @pre n > 0. Inline, so a constant
     * @p n (a line within a page) needs no division.
     */
    std::uint64_t
    uniformInt(std::uint64_t n)
    {
        if (n == 0)
            zeroBound();
        // Rejection sampling to avoid modulo bias.
        const std::uint64_t limit = max() - max() % n;
        std::uint64_t v;
        do {
            v = next();
        } while (v >= limit);
        return v % n;
    }

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p) { return uniform() < p; }

    /** Exponential variate with the given mean (not rate). */
    double exponential(double mean);

    /** Standard normal variate (Box-Muller). */
    double normal();

    /** Normal variate with given mean and standard deviation. */
    double normal(double mean, double stddev);

    /**
     * Lognormal variate parameterized by the mean and sigma of the
     * underlying normal distribution.
     */
    double lognormal(double mu, double sigma);

    /**
     * Save or restore the full generator state (xoshiro words plus
     * the cached Box-Muller normal), making a restored stream
     * position-exact: the next draw after restore equals the next
     * draw the saved generator would have produced.
     */
    void serialize(hh::snap::Archive &ar);

  private:
    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    /** uniformInt's panic on an empty range, out of line. */
    [[noreturn]] static void zeroBound();

    std::uint64_t s_[4];
    bool has_cached_normal_ = false;
    double cached_normal_ = 0.0;
};

/**
 * Precomputed Zipf sampler over [0, n).
 *
 * Builds the CDF once, plus a guide table: each sample looks up the
 * bucket its uniform draw falls in and scans forward a few CDF
 * values. Used to model skewed page popularity inside a
 * microservice working set.
 */
class ZipfSampler
{
  public:
    /**
     * @param n     Number of items (> 0).
     * @param theta Skew parameter; 0 means uniform, ~0.99 is a
     *              typical hot-spot workload.
     */
    ZipfSampler(std::size_t n, double theta);

    /** Draw one item index in [0, n). */
    std::size_t sample(Rng &rng) const { return sampleAt(rng.uniform()); }

    /**
     * The item a uniform draw @p u in [0, 1] maps to: the first
     * index whose CDF value is >= u (the last index if none is).
     *
     * guide_[b] is the first index whose CDF value is >= b / B, and
     * b / B <= u, so the answer is at or after it; the scan walks to
     * it. This is std::lower_bound's answer, capped at n - 1.
     */
    std::size_t
    sampleAt(double u) const
    {
        const std::size_t buckets = guide_.size();
        // B is a power of two, so u * B is exact.
        const auto b = std::min(
            static_cast<std::size_t>(u * static_cast<double>(buckets)),
            buckets - 1);
        std::size_t i = guide_[b];
        const std::size_t last = cdf_.size() - 1;
        while (i < last && cdf_[i] < u)
            ++i;
        return i;
    }

    std::size_t size() const { return cdf_.size(); }

    /** The normalized CDF, one value per item (tests). */
    const std::vector<double> &cdf() const { return cdf_; }

    /**
     * Buckets of the guide (B): the power of two at or above 4n, so
     * the typical bucket holds under one item and the scan stays
     * short even in the Zipf tail.
     */
    std::size_t guideBuckets() const { return guide_.size(); }

  private:
    std::vector<double> cdf_;
    /** guide_[b]: the first index whose CDF value is >= b / B. */
    std::vector<std::uint32_t> guide_;
};

/**
 * Process-wide cache of Zipf samplers keyed by (n, theta).
 *
 * A sampler is immutable after construction (sample() is const and
 * carries its own Rng), so instances with identical CDF parameters
 * can share one table. Service-graph fleets place the same tier
 * service on dozens of servers — without sharing, every server would
 * rebuild and hold its own copy of the same CDF plus guide.
 * Thread-safe: servers construct concurrently under runParallel.
 */
std::shared_ptr<const ZipfSampler> sharedZipfSampler(std::size_t n,
                                                     double theta);

} // namespace hh::sim

#endif // HH_SIM_RNG_H
