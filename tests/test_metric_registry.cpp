/**
 * @file
 * Tests for the hierarchical metric registry and the periodic
 * EventQueue-driven sampler.
 */

#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "stats/counter.h"
#include "stats/percentile.h"
#include "stats/registry.h"
#include "stats/sampler.h"
#include "stats/utilization.h"

using namespace hh::stats;

TEST(MetricRegistry, GaugeSnapshotAndValue)
{
    MetricRegistry reg;
    double v = 1.5;
    reg.registerGauge("a.b", [&v] { return v; });
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_TRUE(reg.contains("a.b"));
    EXPECT_DOUBLE_EQ(reg.value("a.b"), 1.5);
    v = 2.5;
    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].name, "a.b");
    EXPECT_DOUBLE_EQ(snap[0].value, 2.5);
}

TEST(MetricRegistry, NamesAreSortedLexicographically)
{
    MetricRegistry reg;
    reg.registerGauge("z", [] { return 0.0; });
    reg.registerGauge("a", [] { return 0.0; });
    reg.registerGauge("m.n", [] { return 0.0; });
    const auto names = reg.names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "a");
    EXPECT_EQ(names[1], "m.n");
    EXPECT_EQ(names[2], "z");
}

TEST(MetricRegistry, DuplicateRegistrationPanics)
{
    MetricRegistry reg;
    reg.registerGauge("dup", [] { return 0.0; });
    EXPECT_THROW(reg.registerGauge("dup", [] { return 1.0; }),
                 std::logic_error);
}

TEST(MetricRegistry, EmptyNamePanics)
{
    MetricRegistry reg;
    EXPECT_THROW(reg.registerGauge("", [] { return 0.0; }),
                 std::logic_error);
}

TEST(MetricRegistry, UnknownValuePanics)
{
    const MetricRegistry reg;
    EXPECT_THROW(reg.value("nope"), std::logic_error);
}

TEST(MetricRegistry, CounterObjectAndRawCounter)
{
    MetricRegistry reg;
    Counter c{"c"};
    std::uint64_t raw = 7;
    reg.registerCounter("obj", c);
    reg.registerCounter("raw", raw);
    c.inc(3);
    EXPECT_DOUBLE_EQ(reg.value("obj"), 3.0);
    EXPECT_DOUBLE_EQ(reg.value("raw"), 7.0);
    raw = 9;
    EXPECT_DOUBLE_EQ(reg.value("raw"), 9.0);
}

TEST(MetricRegistry, CompositeObjectsExpandToScalars)
{
    MetricRegistry reg;
    LatencyRecorder lat("lat");
    lat.record(4.0);
    reg.registerLatency("lat", lat);
    EXPECT_DOUBLE_EQ(reg.value("lat.count"), 1.0);
    EXPECT_DOUBLE_EQ(reg.value("lat.mean"), 4.0);
}

TEST(MetricRegistry, UtilizationGaugeAndCycles)
{
    MetricRegistry reg;
    UtilizationTracker u;
    hh::sim::Cycles now = 0;
    reg.registerUtilization("core", u, [&now] { return now; });
    u.setBusy(0, true);
    now = 100;
    u.setBusy(100, false);
    now = 200;
    EXPECT_DOUBLE_EQ(reg.value("core.util"), 0.5);
    EXPECT_DOUBLE_EQ(reg.value("core.cycles"), 100.0);
}

TEST(MetricRegistry, JsonIsPrefixedAndSorted)
{
    MetricRegistry reg;
    reg.registerGauge("b", [] { return 2.0; });
    reg.registerGauge("a", [] { return 1.0; });
    const std::string js = reg.json("server0");
    EXPECT_EQ(js.front(), '{');
    EXPECT_EQ(js.rfind("}\n"), js.size() - 2);
    const auto a_pos = js.find("\"server0.a\"");
    const auto b_pos = js.find("\"server0.b\"");
    ASSERT_NE(a_pos, std::string::npos);
    ASSERT_NE(b_pos, std::string::npos);
    EXPECT_LT(a_pos, b_pos);
}

TEST(MetricSampler, SamplesAtFixedCadence)
{
    hh::sim::Simulator sim;
    MetricRegistry reg;
    reg.registerGauge("t", [&sim] { return double(sim.now()); });

    MetricSampler sampler(sim, reg, 100);
    sampler.start();
    // Keep the queue busy well past several sampling periods.
    sim.schedule(450, [] {});
    sim.run(450);
    sampler.stop();

    const auto series = sampler.rows();
    // Rows at 0 (start), 100, 200, 300, 400, 450 (stop).
    ASSERT_EQ(series.size(), 6u);
    EXPECT_EQ(series[0].t, 0u);
    EXPECT_EQ(series[1].t, 100u);
    EXPECT_EQ(series[4].t, 400u);
    EXPECT_EQ(series[5].t, 450u);
    ASSERT_EQ(series[2].values.size(), 1u);
    EXPECT_DOUBLE_EQ(series[2].values[0], 200.0);
}

TEST(MetricSampler, StopCancelsPendingTick)
{
    hh::sim::Simulator sim;
    MetricRegistry reg;
    reg.registerGauge("x", [] { return 0.0; });
    MetricSampler sampler(sim, reg, 50);
    sampler.start();
    sampler.stop();
    // Without the cancel the self-rescheduling tick would keep the
    // queue alive forever.
    EXPECT_TRUE(sim.idle());
    sampler.stop(); // Idempotent.
}

TEST(MetricSampler, EmptyRegistryStillMarksCadence)
{
    hh::sim::Simulator sim;
    const MetricRegistry reg; // nothing registered
    MetricSampler sampler(sim, reg, 100);
    sampler.start();
    sim.schedule(250, [] {});
    sim.run(250);
    sampler.stop();
    auto series = sampler.takeSeries();
    series.label = "s0";
    // Rows at 0, 100, 200 and the 250 partial; each with no values.
    ASSERT_EQ(series.rows.size(), 4u);
    for (const auto &row : series.rows)
        EXPECT_TRUE(row.values.empty());
    const std::string csv = metricsCsv({series});
    EXPECT_EQ(csv.rfind("server,t_ms\n", 0), 0u);
}

TEST(MetricSampler, PartialFinalIntervalGetsOneRow)
{
    hh::sim::Simulator sim;
    MetricRegistry reg;
    reg.registerGauge("x", [] { return 1.0; });
    MetricSampler sampler(sim, reg, 100);
    sampler.start();
    // Run length 130 is not a multiple of the cadence: the stop()
    // must record the final partial interval exactly once.
    sim.schedule(130, [] {});
    sim.run(130);
    sampler.stop();
    const auto &rows = sampler.rows();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].t, 0u);
    EXPECT_EQ(rows[1].t, 100u);
    EXPECT_EQ(rows[2].t, 130u);
}

TEST(MetricSampler, StopAtTickTimeDoesNotDuplicateRow)
{
    hh::sim::Simulator sim;
    MetricRegistry reg;
    reg.registerGauge("x", [] { return 1.0; });
    MetricSampler sampler(sim, reg, 100);
    sampler.start();
    // The run ends exactly on a tick: the tick samples t=200, so the
    // stop() must not append a duplicate row at the same time.
    sim.run(200);
    ASSERT_EQ(sim.now(), 200u);
    sampler.stop();
    const auto &rows = sampler.rows();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].t, 0u);
    EXPECT_EQ(rows[1].t, 100u);
    EXPECT_EQ(rows[2].t, 200u);
}

TEST(MetricSampler, StartAfterResumeSamplesFromCurrentTime)
{
    hh::sim::Simulator sim;
    MetricRegistry reg;
    reg.registerGauge("t", [&sim] { return double(sim.now()); });
    // A checkpoint-resumed server starts its sampler with the clock
    // already advanced; rows must begin at now(), not at 0.
    sim.schedule(500, [] {});
    sim.run(500);
    MetricSampler sampler(sim, reg, 100);
    sampler.start();
    sim.schedule(250, [] {});
    sim.run(750);
    sampler.stop();
    const auto &rows = sampler.rows();
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_EQ(rows[0].t, 500u);
    EXPECT_EQ(rows[1].t, 600u);
    EXPECT_EQ(rows[2].t, 700u);
    EXPECT_EQ(rows[3].t, 750u);
    EXPECT_DOUBLE_EQ(rows[1].values[0], 600.0);
}

TEST(MetricSampler, LateRegistrationDoesNotShiftRows)
{
    hh::sim::Simulator sim;
    MetricRegistry reg;
    reg.registerGauge("b", [] { return 2.0; });
    MetricSampler sampler(sim, reg, 100);
    sampler.start();
    // A metric registered after start() must not widen later rows —
    // the columns were frozen with the header at start time.
    reg.registerGauge("a", [] { return 1.0; });
    sim.schedule(150, [] {});
    sim.run(150);
    sampler.stop();
    auto series = sampler.takeSeries();
    ASSERT_EQ(series.columns.size(), 1u);
    EXPECT_EQ(series.columns[0], "b");
    for (const auto &row : series.rows) {
        ASSERT_EQ(row.values.size(), 1u);
        EXPECT_DOUBLE_EQ(row.values[0], 2.0);
    }
}

TEST(MetricSampler, CsvHasHeaderAndSharedColumns)
{
    hh::sim::Simulator sim;
    MetricRegistry reg;
    reg.registerGauge("m.one", [] { return 1.0; });
    reg.registerGauge("m.two", [] { return 2.0; });
    MetricSampler sampler(sim, reg, 100);
    sampler.start();
    sampler.stop();
    auto series = sampler.takeSeries();
    series.label = "server0";

    const std::string csv = metricsCsv({series});
    EXPECT_EQ(csv.rfind("server,t_ms,m.one,m.two\n", 0), 0u);
    EXPECT_NE(csv.find("server0,"), std::string::npos);
}
