/**
 * @file
 * Unit and property tests for the deterministic RNG and samplers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "sim/rng.h"
#include "workload/batch.h"

using hh::sim::Rng;
using hh::sim::ZipfSampler;

TEST(Rng, DeterministicForSameSeedAndStream)
{
    Rng a(42, 7);
    Rng b(42, 7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, StreamsDiffer)
{
    Rng a(42, 1);
    Rng b(42, 2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1, 0);
    Rng b(2, 0);
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(3);
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng r(4);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng r(5);
    for (int i = 0; i < 1000; ++i) {
        const double v = r.uniform(-3.0, 7.5);
        EXPECT_GE(v, -3.0);
        EXPECT_LT(v, 7.5);
    }
}

TEST(Rng, UniformIntWithinBound)
{
    Rng r(6);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = r.uniformInt(std::uint64_t{10});
        EXPECT_LT(v, 10u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 10u); // all values hit
}

TEST(Rng, UniformIntInclusiveRange)
{
    Rng r(7);
    bool lo_seen = false;
    bool hi_seen = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.uniformInt(std::int64_t{-2}, std::int64_t{2});
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        lo_seen |= v == -2;
        hi_seen |= v == 2;
    }
    EXPECT_TRUE(lo_seen);
    EXPECT_TRUE(hi_seen);
}

TEST(Rng, UniformIntZeroPanics)
{
    Rng r(8);
    EXPECT_THROW(r.uniformInt(std::uint64_t{0}), std::logic_error);
}

TEST(Rng, BernoulliExtremes)
{
    Rng r(9);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.bernoulli(0.0));
        EXPECT_TRUE(r.bernoulli(1.0));
    }
}

TEST(Rng, BernoulliFrequency)
{
    Rng r(10);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMean)
{
    Rng r(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.exponential(250.0);
    EXPECT_NEAR(sum / n, 250.0, 5.0);
}

TEST(Rng, ExponentialPositive)
{
    Rng r(12);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GT(r.exponential(1.0), 0.0);
}

TEST(Rng, NormalMoments)
{
    Rng r(13);
    double sum = 0;
    double sq = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double v = r.normal();
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalShifted)
{
    Rng r(14);
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += r.normal(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, LognormalMedian)
{
    Rng r(15);
    std::vector<double> v;
    const int n = 20001;
    for (int i = 0; i < n; ++i)
        v.push_back(r.lognormal(std::log(5.0), 0.5));
    std::sort(v.begin(), v.end());
    EXPECT_NEAR(v[n / 2], 5.0, 0.25);
}

TEST(Zipf, SizeAndRange)
{
    Rng r(16);
    ZipfSampler z(100, 0.9);
    EXPECT_EQ(z.size(), 100u);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(z.sample(r), 100u);
}

TEST(Zipf, SkewFavorsLowIndices)
{
    Rng r(17);
    ZipfSampler z(1000, 0.99);
    int low = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        low += z.sample(r) < 10 ? 1 : 0;
    // With theta=0.99 the top-10 of 1000 items draw a large share.
    EXPECT_GT(static_cast<double>(low) / n, 0.25);
}

TEST(Zipf, ZeroThetaIsUniform)
{
    Rng r(18);
    ZipfSampler z(10, 0.0);
    std::vector<int> counts(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[z.sample(r)];
    for (int c : counts)
        EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
}

TEST(Zipf, SingleItem)
{
    Rng r(19);
    ZipfSampler z(1, 0.9);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(z.sample(r), 0u);
}

TEST(Zipf, EmptyPanics)
{
    EXPECT_THROW(ZipfSampler(0, 0.9), std::logic_error);
}

TEST(ZipfSampler, IndexedSearchIsThePlainLowerBound)
{
    // Every (n, theta) a batch application samples from: its data
    // pages at its skew and its code pages at 0.9.
    std::vector<std::pair<std::size_t, double>> shapes;
    for (const auto &spec : hh::workload::batchApplications()) {
        shapes.emplace_back(spec.dataPages, spec.zipfTheta);
        shapes.emplace_back(spec.codePages, 0.9);
    }
    for (const auto &[n, theta] : shapes) {
        const ZipfSampler z(n, theta);
        const std::vector<double> &cdf = z.cdf();
        ASSERT_EQ(cdf.size(), n);
        const auto plain = [&](double u) {
            const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
            return std::min<std::size_t>(
                static_cast<std::size_t>(it - cdf.begin()), n - 1);
        };
        const auto check = [&](double u) {
            for (const double v :
                 {std::nextafter(u, 0.0), u, std::nextafter(u, 1.0)})
                ASSERT_EQ(z.sampleAt(v), plain(v))
                    << "n " << n << " theta " << theta << " u "
                    << v;
        };
        // Every bucket edge b / B and its neighbours.
        const auto buckets = ZipfSampler::kIndexBuckets;
        for (std::size_t b = 0; b <= buckets; ++b)
            check(static_cast<double>(b) / static_cast<double>(buckets));
        // Every CDF value and its neighbours.
        for (const double c : cdf)
            check(c);
        // Random draws, through sample() as the workloads call it.
        Rng draw(29);
        Rng same(29);
        for (int i = 0; i < 20000; ++i)
            ASSERT_EQ(z.sample(draw), plain(same.uniform()))
                << "n " << n << " theta " << theta << " draw " << i;
    }
}

/** Property: every distribution is reproducible per (seed, stream). */
class RngReproduce : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(RngReproduce, SequencesMatch)
{
    const std::uint64_t seed = GetParam();
    Rng a(seed, 3);
    Rng b(seed, 3);
    for (int i = 0; i < 50; ++i) {
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
        EXPECT_DOUBLE_EQ(a.exponential(2.0), b.exponential(2.0));
        EXPECT_DOUBLE_EQ(a.normal(), b.normal());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngReproduce,
                         ::testing::Values(1, 2, 3, 17, 1234567,
                                           0xDEADBEEF));
