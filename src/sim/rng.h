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
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). @pre n > 0. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p);

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
    std::uint64_t s_[4];
    bool has_cached_normal_ = false;
    double cached_normal_ = 0.0;
};

/**
 * Precomputed Zipf sampler over [0, n).
 *
 * Builds the CDF once; each sample is a binary search. Used to model
 * skewed page popularity inside a microservice working set.
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
     */
    std::size_t sampleAt(double u) const;

    std::size_t size() const { return cdf_.size(); }

    /** The normalized CDF, one value per item (tests). */
    const std::vector<double> &cdf() const { return cdf_; }

    /**
     * Buckets of the index below (B). A power of two, so u * B and
     * b / B are exact; fine enough that the slices stay short in a
     * Zipf tail, where one bucket of probability covers many items.
     */
    static constexpr std::size_t kIndexBuckets = 4096;

  private:
    std::vector<double> cdf_;
    /**
     * First-level acceleration index: bucket_[b] is the lower_bound
     * of b / kIndexBuckets in cdf_, so a sample only binary-searches
     * the slice [bucket_[b], bucket_[b+1]] its uniform draw falls
     * in. Pure narrowing — the result is the exact lower_bound the
     * full-range search would return.
     */
    std::vector<std::uint32_t> bucket_;
};

/**
 * Process-wide cache of Zipf samplers keyed by (n, theta).
 *
 * A sampler is immutable after construction (sample() is const and
 * carries its own Rng), so instances with identical CDF parameters
 * can share one table. Service-graph fleets place the same tier
 * service on dozens of servers — without sharing, every server would
 * rebuild and hold its own copy of the same CDF plus bucket index.
 * Thread-safe: servers construct concurrently under runParallel.
 */
std::shared_ptr<const ZipfSampler> sharedZipfSampler(std::size_t n,
                                                     double theta);

} // namespace hh::sim

#endif // HH_SIM_RNG_H
