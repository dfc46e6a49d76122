/**
 * @file
 * Unit and property tests for the deterministic RNG and samplers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
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

namespace {

/** std::lower_bound's item for @p u, capped at the last item. */
std::size_t
plainLowerBound(const std::vector<double> &cdf, double u)
{
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                                 cdf.size() - 1);
}

/**
 * The guide search agrees with the plain lower_bound at every bucket
 * edge b / B, every CDF value and the neighbours of each.
 */
void
expectGuideExact(const ZipfSampler &z)
{
    const std::vector<double> &cdf = z.cdf();
    const auto check = [&](double u) {
        for (const double v :
             {std::nextafter(u, 0.0), u, std::nextafter(u, 1.0)})
            ASSERT_EQ(z.sampleAt(v), plainLowerBound(cdf, v))
                << "n " << cdf.size() << " u " << v;
    };
    const std::size_t buckets = z.guideBuckets();
    for (std::size_t b = 0; b <= buckets; ++b)
        check(static_cast<double>(b) / static_cast<double>(buckets));
    for (const double c : cdf)
        check(c);
}

} // namespace

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
        ASSERT_EQ(z.cdf().size(), n);
        expectGuideExact(z);
        // Random draws, through sample() as the workloads call it.
        Rng draw(29);
        Rng same(29);
        for (int i = 0; i < 20000; ++i)
            ASSERT_EQ(z.sample(draw), plainLowerBound(z.cdf(), same.uniform()))
                << "n " << n << " theta " << theta << " draw " << i;
    }
}

TEST(ZipfSampler, GuideIsExactAtEveryEdge)
{
    // Sizes from one item to the largest batch data set, over
    // uniform, typical and steep skews.
    for (const std::size_t n : {1u, 2u, 24u, 3072u, 8192u}) {
        for (const double theta : {0.0, 0.35, 0.99, 1.6}) {
            const ZipfSampler z(n, theta);
            // A power of two with at least four buckets per item.
            EXPECT_GE(z.guideBuckets(), 4 * n);
            EXPECT_EQ(z.guideBuckets() & (z.guideBuckets() - 1), 0u);
            expectGuideExact(z);
            if (HasFatalFailure())
                return;
        }
    }
}

TEST(Rng, FirstHundredDrawsArePinned)
{
    // Three streams, each drawing through next(), uniformInt(64),
    // uniform(), bernoulli(0.3) and uniformInt(1000) in turn; the
    // values were captured from the out-of-line implementation.
    struct Pin
    {
        std::uint64_t seed, stream;
        std::uint64_t first[5];
        std::uint64_t fnv; //!< FNV-1a of all 100 draws, 8 bytes each
    };
    const Pin pins[] = {
        {1, 0, {0x99ec5f36cb75f2b4ULL, 42, 0x3fba5f849d4933e0ULL, 0, 737},
         0x1f710855d399ea82ULL},
        {42, 7, {0xb020fc35d4d02bcaULL, 63, 0x3fe46152bd3ae95eULL, 0, 53},
         0x4c5d66f02a8e5fa5ULL},
        {0xDEADBEEF, 3,
         {0x10895fc57414a98dULL, 52, 0x3fe6706e60ba8db5ULL, 0, 309},
         0xa9d1b3a6159fac35ULL},
    };
    for (const Pin &pin : pins) {
        Rng r(pin.seed, pin.stream);
        std::uint64_t h = 0xcbf29ce484222325ULL;
        for (int i = 0; i < 100; ++i) {
            std::uint64_t v = 0;
            switch (i % 5) {
              case 0: v = r.next(); break;
              case 1: v = r.uniformInt(std::uint64_t{64}); break;
              case 2: {
                  const double u = r.uniform();
                  std::memcpy(&v, &u, sizeof v);
                  break;
              }
              case 3: v = r.bernoulli(0.3); break;
              default: v = r.uniformInt(std::uint64_t{1000}); break;
            }
            if (i < 5) {
                EXPECT_EQ(v, pin.first[i])
                    << "seed " << pin.seed << " draw " << i;
            }
            for (int b = 0; b < 8; ++b) {
                h ^= (v >> (8 * b)) & 0xFF;
                h *= 0x100000001b3ULL;
            }
        }
        EXPECT_EQ(h, pin.fnv) << "seed " << pin.seed;
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
