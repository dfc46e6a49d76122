/**
 * @file
 * Unit tests for counters, the log histogram and the percentile
 * recorder.
 */

#include <gtest/gtest.h>

#include "stats/counter.h"
#include "stats/histogram.h"
#include "stats/percentile.h"

using hh::stats::Counter;
using hh::stats::LatencyRecorder;
using hh::stats::LogHistogram;

TEST(Counter, IncrementAndName)
{
    Counter c("x");
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);
    EXPECT_EQ(c.name(), "x");
}

TEST(LogHistogram, PowerOfTwoBuckets)
{
    LogHistogram h(10);
    h.add(1.0);   // bucket 0
    h.add(2.0);   // bucket 1
    h.add(3.9);   // bucket 1
    h.add(4.0);   // bucket 2
    h.add(1000.0); // bucket 9 (log2=9.96 -> 9 via clamp)
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 2u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(9), 1u);
    EXPECT_EQ(h.totalCount(), 5u);
}

TEST(LogHistogram, SingleSampleAndExtremePercentiles)
{
    LogHistogram h(16);
    EXPECT_DOUBLE_EQ(h.percentile(99), 0.0); // empty
    EXPECT_DOUBLE_EQ(hh::stats::logBucketPercentile(h.counts(), 99),
                     0.0);
    h.add(100.0); // bucket 6: [64, 128)
    EXPECT_DOUBLE_EQ(h.percentile(0), 64.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), 64.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 64.0);
    h.add(1.0);   // bucket 0: [0, 2)
    h.add(600.0); // bucket 9: [512, 1024)
    EXPECT_DOUBLE_EQ(h.percentile(0), 0.0);    // first non-empty
    EXPECT_DOUBLE_EQ(h.percentile(100), 512.0); // last non-empty
    // Out-of-range p clamps rather than reading past the buckets.
    EXPECT_DOUBLE_EQ(h.percentile(-5), h.percentile(0));
    EXPECT_DOUBLE_EQ(h.percentile(250), h.percentile(100));
}

TEST(LogHistogram, FreePercentileMatchesMemberOnMergedCounts)
{
    LogHistogram a(12), b(12);
    LogHistogram a2(12), b2(12);
    for (double v : {1.0, 3.0, 70.0, 500.0}) {
        a.add(v);
        a2.add(v);
    }
    for (double v : {3.5, 900.0}) {
        b.add(v);
        b2.add(v);
    }
    a.merge(b);   // a += b
    b2.merge(a2); // b += a
    ASSERT_EQ(a.totalCount(), 6u);
    EXPECT_EQ(a.counts(), b2.counts());
    EXPECT_EQ(a.bucketCount(1), 2u);
    // The free function over the raw counts is how the TelemetryHub
    // computes fleet percentiles from merged bucket deltas; both clamp
    // an out-of-range p the same way.
    for (double p : {-5.0, 0.0, 25.0, 50.0, 99.0, 100.0, 250.0}) {
        EXPECT_DOUBLE_EQ(hh::stats::logBucketPercentile(a.counts(), p),
                         a.percentile(p));
        EXPECT_DOUBLE_EQ(b2.percentile(p), a.percentile(p));
    }

    LogHistogram narrow(8), wide(16);
    EXPECT_THROW(narrow.merge(wide), std::logic_error);
}

TEST(LatencyRecorder, ExactPercentilesSmallSet)
{
    LatencyRecorder r;
    for (double v : {1.0, 2.0, 3.0, 4.0, 5.0})
        r.record(v);
    EXPECT_DOUBLE_EQ(r.p50(), 3.0);
    EXPECT_DOUBLE_EQ(r.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(r.percentile(100), 5.0);
    EXPECT_DOUBLE_EQ(r.max(), 5.0);
    EXPECT_DOUBLE_EQ(r.mean(), 3.0);
}

TEST(LatencyRecorder, InterpolatesBetweenRanks)
{
    LatencyRecorder r;
    r.record(0.0);
    r.record(10.0);
    EXPECT_DOUBLE_EQ(r.p50(), 5.0);
    EXPECT_DOUBLE_EQ(r.percentile(25), 2.5);
}

TEST(LatencyRecorder, EmptyReturnsZero)
{
    LatencyRecorder r;
    EXPECT_EQ(r.p99(), 0.0);
    EXPECT_EQ(r.mean(), 0.0);
    EXPECT_EQ(r.count(), 0u);
}

TEST(LatencyRecorder, SingleSample)
{
    LatencyRecorder r;
    r.record(7.0);
    EXPECT_DOUBLE_EQ(r.p50(), 7.0);
    EXPECT_DOUBLE_EQ(r.p99(), 7.0);
}

TEST(LatencyRecorder, UnsortedInputHandled)
{
    LatencyRecorder r;
    for (double v : {9.0, 1.0, 5.0, 3.0, 7.0})
        r.record(v);
    EXPECT_DOUBLE_EQ(r.p50(), 5.0);
    // Recording after a query re-sorts correctly.
    r.record(0.0);
    EXPECT_DOUBLE_EQ(r.percentile(0), 0.0);
}

TEST(LatencyRecorder, OutOfRangePanics)
{
    LatencyRecorder r;
    r.record(1.0);
    EXPECT_THROW(r.percentile(-1), std::logic_error);
    EXPECT_THROW(r.percentile(101), std::logic_error);
}

TEST(EmpiricalCdf, FractionsAtQueryPoints)
{
    const std::vector<double> samples{1, 2, 3, 4, 5};
    const auto cdf =
        hh::stats::empiricalCdf(samples, {0.5, 2.0, 4.5, 10.0});
    ASSERT_EQ(cdf.size(), 4u);
    EXPECT_DOUBLE_EQ(cdf[0], 0.0);
    EXPECT_DOUBLE_EQ(cdf[1], 0.4);
    EXPECT_DOUBLE_EQ(cdf[2], 0.8);
    EXPECT_DOUBLE_EQ(cdf[3], 1.0);
}

/** Property: percentiles are monotone in p. */
class PercentileMonotone : public ::testing::TestWithParam<int>
{};

TEST_P(PercentileMonotone, NonDecreasing)
{
    LatencyRecorder r;
    // Pseudo-random-ish but deterministic samples.
    std::uint64_t x = static_cast<std::uint64_t>(GetParam()) + 1;
    for (int i = 0; i < 500; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        r.record(static_cast<double>(x % 10000) / 100.0);
    }
    double prev = r.percentile(0);
    for (int p = 1; p <= 100; ++p) {
        const double v = r.percentile(p);
        EXPECT_GE(v, prev);
        prev = v;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotone,
                         ::testing::Range(0, 8));
