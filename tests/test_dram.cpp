/**
 * @file
 * Unit tests for the windowed-utilization DRAM model.
 */

#include <gtest/gtest.h>

#include "mem/dram.h"

using hh::mem::Dram;
using hh::mem::DramConfig;
using hh::sim::Cycles;

TEST(Dram, IdleAccessPaysBaseLatency)
{
    Dram d;
    EXPECT_EQ(d.access(0, 0), d.config().baseLatency);
}

TEST(Dram, UtilizationRisesWithTraffic)
{
    DramConfig cfg;
    cfg.window = 1000;
    cfg.controllers = 1;
    cfg.servicePerAccess = 10;
    Dram d(cfg);
    EXPECT_DOUBLE_EQ(d.utilization(0), 0.0);
    for (int i = 0; i < 50; ++i)
        d.access(100, 0);
    EXPECT_GT(d.utilization(100), 0.2);
}

TEST(Dram, QueueDelayGrowsWithUtilization)
{
    DramConfig cfg;
    cfg.window = 1000;
    cfg.controllers = 1;
    cfg.servicePerAccess = 10;
    Dram d(cfg);
    const Cycles idle = d.access(0, 0);
    for (int i = 0; i < 100; ++i)
        d.access(10, 0);
    const Cycles loaded = d.access(20, 0);
    EXPECT_GT(loaded, idle);
}

TEST(Dram, UtilizationCapped)
{
    DramConfig cfg;
    cfg.window = 100;
    cfg.controllers = 1;
    cfg.servicePerAccess = 10;
    Dram d(cfg);
    for (int i = 0; i < 10000; ++i)
        d.access(50, 0);
    EXPECT_LE(d.utilization(50), cfg.maxRho);
    // Latency stays finite even at saturation.
    EXPECT_LT(d.access(50, 0), cfg.baseLatency + 200);
}

TEST(Dram, TrafficAgesOut)
{
    DramConfig cfg;
    cfg.window = 1000;
    cfg.controllers = 1;
    cfg.servicePerAccess = 10;
    Dram d(cfg);
    for (int i = 0; i < 100; ++i)
        d.access(0, 0);
    EXPECT_GT(d.utilization(500), 0.0);
    // Many windows later the burst no longer counts.
    EXPECT_DOUBLE_EQ(d.utilization(100'000), 0.0);
    EXPECT_EQ(d.access(100'000, 0), cfg.baseLatency);
}

TEST(Dram, MoreControllersLowerUtilization)
{
    DramConfig one;
    one.window = 1000;
    one.controllers = 1;
    DramConfig four = one;
    four.controllers = 4;
    Dram d1(one);
    Dram d4(four);
    for (int i = 0; i < 100; ++i) {
        d1.access(10, 0);
        d4.access(10, 0);
    }
    EXPECT_GT(d1.utilization(10), d4.utilization(10));
}

TEST(Dram, WeightScalesAccounting)
{
    DramConfig cfg;
    cfg.window = 1000;
    cfg.controllers = 1;
    Dram plain(cfg);
    Dram weighted(cfg);
    for (int i = 0; i < 10; ++i) {
        plain.access(10, 0, 1);
        weighted.access(10, 0, 8);
    }
    EXPECT_GT(weighted.utilization(10), plain.utilization(10));
}

TEST(Dram, StatsTrackAccessesAndDelay)
{
    Dram d;
    d.access(0, 0);
    d.access(0, 1);
    EXPECT_EQ(d.accesses(), 2u);
    EXPECT_GE(d.avgQueueDelay(), 0.0);
}

TEST(Dram, InvalidConfigFatal)
{
    DramConfig cfg;
    cfg.controllers = 0;
    EXPECT_THROW(Dram{cfg}, std::runtime_error);
    DramConfig cfg2;
    cfg2.window = 0;
    EXPECT_THROW(Dram{cfg2}, std::runtime_error);
}
