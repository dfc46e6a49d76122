/**
 * @file
 * Unit tests for time-weighted utilization tracking.
 */

#include <gtest/gtest.h>

#include "stats/utilization.h"

using hh::stats::UtilizationTracker;

TEST(UtilizationTracker, IntegratesBusyTime)
{
    UtilizationTracker t;
    t.setBusy(0, true);
    t.setBusy(100, false);
    EXPECT_EQ(t.busyCycles(100), 100u);
    EXPECT_EQ(t.busyCycles(200), 100u);
    EXPECT_DOUBLE_EQ(t.utilization(200), 0.5);
}

TEST(UtilizationTracker, OngoingBusyCounted)
{
    UtilizationTracker t;
    t.setBusy(50, true);
    EXPECT_EQ(t.busyCycles(150), 100u);
    EXPECT_DOUBLE_EQ(t.utilization(200), 0.75);
}

TEST(UtilizationTracker, RedundantTransitionsIgnored)
{
    UtilizationTracker t;
    t.setBusy(0, true);
    t.setBusy(10, true);
    t.setBusy(20, false);
    t.setBusy(30, false);
    EXPECT_EQ(t.busyCycles(100), 20u);
}

TEST(UtilizationTracker, NeverBusyIsZero)
{
    UtilizationTracker t;
    EXPECT_EQ(t.busyCycles(1000), 0u);
    EXPECT_DOUBLE_EQ(t.utilization(1000), 0.0);
}

TEST(UtilizationTracker, UtilizationAtStartIsZero)
{
    UtilizationTracker t;
    EXPECT_DOUBLE_EQ(t.utilization(0), 0.0);
}

TEST(UtilizationTracker, TimeBackwardsPanics)
{
    UtilizationTracker t;
    t.setBusy(100, true);
    EXPECT_THROW(t.setBusy(50, false), std::logic_error);
}
