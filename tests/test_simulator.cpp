/**
 * @file
 * Unit tests for the simulation driver.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/periodic_task.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "snapshot/archive.h"
#include "snapshot/tag.h"

using hh::sim::Cycles;
using hh::sim::PeriodicTask;
using hh::sim::Simulator;
using hh::snap::SnapTag;

namespace {

/** Callback state well past any small-buffer size. */
struct Big
{
    std::array<std::uint64_t, 12> words{};

    explicit Big(std::uint64_t v) { words.fill(v); }

    std::uint64_t
    sum() const
    {
        std::uint64_t s = 0;
        for (const std::uint64_t w : words)
            s += w;
        return s;
    }
};

} // namespace

TEST(Simulator, ClockStartsAtZero)
{
    Simulator s;
    EXPECT_EQ(s.now(), 0u);
    EXPECT_TRUE(s.idle());
}

TEST(Simulator, ClockAdvancesToEventTime)
{
    Simulator s;
    s.schedule(100, [] {});
    s.run();
    EXPECT_EQ(s.now(), 100u);
}

TEST(Simulator, RelativeSchedulingFromInsideEvents)
{
    Simulator s;
    Cycles second = 0;
    s.schedule(10, [&] {
        s.schedule(5, [&] { second = s.now(); });
    });
    s.run();
    EXPECT_EQ(second, 15u);
}

TEST(Simulator, RunHonorsHorizon)
{
    Simulator s;
    int ran = 0;
    s.schedule(10, [&] { ++ran; });
    s.schedule(20, [&] { ++ran; });
    s.schedule(30, [&] { ++ran; });
    const auto n = s.run(20);
    EXPECT_EQ(n, 2u);
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(s.pendingEvents(), 1u);
}

TEST(Simulator, EventAtExactHorizonRuns)
{
    Simulator s;
    bool ran = false;
    s.schedule(50, [&] { ran = true; });
    s.run(50);
    EXPECT_TRUE(ran);
}

TEST(Simulator, StepExecutesOne)
{
    Simulator s;
    int ran = 0;
    s.schedule(1, [&] { ++ran; });
    s.schedule(2, [&] { ++ran; });
    EXPECT_TRUE(s.step());
    EXPECT_EQ(ran, 1);
    EXPECT_TRUE(s.step());
    EXPECT_EQ(ran, 2);
    EXPECT_FALSE(s.step());
}

TEST(Simulator, CancelPreventsExecution)
{
    Simulator s;
    bool ran = false;
    const auto id = s.schedule(5, [&] { ran = true; });
    EXPECT_TRUE(s.cancel(id));
    s.run();
    EXPECT_FALSE(ran);
}

TEST(Simulator, ScheduleAtAbsoluteTime)
{
    Simulator s;
    Cycles when = 0;
    s.scheduleAt(123, [&] { when = s.now(); });
    s.run();
    EXPECT_EQ(when, 123u);
}

TEST(Simulator, ScheduleIntoPastPanics)
{
    Simulator s;
    s.schedule(100, [] {});
    s.run();
    EXPECT_THROW(s.scheduleAt(50, [] {}), std::logic_error);
}

TEST(Simulator, ExecutedEventsCounts)
{
    Simulator s;
    for (int i = 0; i < 7; ++i)
        s.schedule(static_cast<Cycles>(i), [] {});
    s.run();
    EXPECT_EQ(s.executedEvents(), 7u);
}

TEST(Simulator, ZeroDelayRunsAtCurrentTime)
{
    Simulator s;
    s.schedule(10, [] {});
    s.run();
    Cycles when = ~Cycles{0};
    s.schedule(0, [&] { when = s.now(); });
    s.run();
    EXPECT_EQ(when, 10u);
}

TEST(Simulator, LargeCaptureIsScheduledCancelledAndRun)
{
    Simulator s;
    // The token's use count shows when the queue lets go of a capture.
    auto token = std::make_shared<int>(0);
    std::uint64_t sum = 0;
    auto kept = [big = Big(3), token, &sum] { sum += big.sum(); };
    auto dropped = [big = Big(5), token, &sum] { sum += big.sum(); };
    static_assert(sizeof(kept) >= 64 && sizeof(dropped) >= 64);

    const auto kept_id = s.schedule(20, std::move(kept));
    const auto dropped_id = s.schedule(10, std::move(dropped));
    EXPECT_EQ(token.use_count(), 3);
    EXPECT_TRUE(s.cancel(dropped_id));
    EXPECT_FALSE(s.cancel(dropped_id));
    EXPECT_EQ(token.use_count(), 2);

    EXPECT_EQ(s.run(), 1u);
    EXPECT_EQ(sum, 36u);
    EXPECT_EQ(s.now(), 20u);
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_FALSE(s.cancel(kept_id));
}

TEST(Simulator, LargeCapturesFireInTimeThenScheduleOrder)
{
    Simulator s;
    std::vector<std::pair<Cycles, std::uint64_t>> fired;
    const Cycles when[] = {30, 10, 30, 20, 10, 30};
    for (std::uint64_t i = 0; i < 6; ++i) {
        auto cb = [big = Big(i), &fired, &s] {
            fired.emplace_back(s.now(), big.words.back());
        };
        static_assert(sizeof(cb) >= 64);
        s.scheduleAt(when[i], std::move(cb));
    }
    EXPECT_EQ(s.run(), 6u);
    EXPECT_EQ(fired, (std::vector<std::pair<Cycles, std::uint64_t>>{
                         {10, 1}, {10, 4}, {20, 3}, {30, 0}, {30, 2},
                         {30, 5}}));
}

TEST(Simulator, LargeCaptureIsRearmedThroughSnapshot)
{
    Simulator a;
    a.schedule(40, hh::snap::tag(SnapTag::kSamplerTick, 7), [] {});
    a.schedule(25, hh::snap::tag(SnapTag::kSamplerTick, 2), [] {});
    auto save = hh::snap::Archive::forSave();
    a.serialize(save, [](const SnapTag &) -> Simulator::Callback {
        return {};
    });
    ASSERT_TRUE(save.ok()) << save.error();

    Simulator b;
    std::vector<std::pair<Cycles, std::uint64_t>> fired;
    auto load = hh::snap::Archive::forLoad(save.take());
    b.serialize(load, [&](const SnapTag &t) -> Simulator::Callback {
        auto cb = [big = Big(t.a), &fired, &b] {
            fired.emplace_back(b.now(), big.sum());
        };
        static_assert(sizeof(cb) >= 64);
        return cb;
    });
    ASSERT_TRUE(load.ok()) << load.error();
    EXPECT_EQ(b.nextEventTime(), 25u);
    EXPECT_EQ(b.run(), 2u);
    EXPECT_EQ(fired, (std::vector<std::pair<Cycles, std::uint64_t>>{
                         {25, 24}, {40, 84}}));
}

TEST(SimulatorPeriodicTask, FiresAtCadenceUntilFireReturnsZero)
{
    Simulator s;
    std::vector<Cycles> fired;
    PeriodicTask task(s, SnapTag::kPolicyTick, [&] {
        fired.push_back(s.now());
        return fired.size() < 3 ? Cycles{100} : Cycles{0};
    });
    task.start(50);
    EXPECT_TRUE(task.running());
    task.start(10); // no-op while running
    s.run();
    EXPECT_EQ(fired, (std::vector<Cycles>{50, 150, 250}));
    EXPECT_FALSE(task.running());
    EXPECT_TRUE(s.idle());
}

TEST(SimulatorPeriodicTask, ZeroPeriodPanics)
{
    Simulator s;
    PeriodicTask task(s, SnapTag::kLeaseTick, [] { return Cycles{1}; });
    EXPECT_THROW(task.start(0), std::logic_error);
    EXPECT_FALSE(task.running());
    EXPECT_TRUE(s.idle());
}

TEST(SimulatorPeriodicTask, StopInCancelledOrFinishedChainIsNoOp)
{
    Simulator s;
    int fires = 0;
    PeriodicTask task(s, SnapTag::kTelemetryTick, [&] {
        ++fires;
        return Cycles{0};
    });
    task.start(10);
    EXPECT_TRUE(task.stop());
    EXPECT_FALSE(task.stop()); // cancelled chain
    EXPECT_TRUE(s.idle());

    task.start(10);
    s.run();
    EXPECT_EQ(fires, 1);
    EXPECT_FALSE(task.stop()); // finished chain
    EXPECT_EQ(s.now(), 10u);

    // Inside fire() no tick is pending either: stop() there changes
    // nothing, and fire()'s return value alone decides the chain.
    bool stopped_inside = true;
    PeriodicTask self(s, SnapTag::kFaultTick, [&] {
        stopped_inside = self.stop();
        return s.now() < 40 ? Cycles{10} : Cycles{0};
    });
    self.start(10);
    s.run();
    EXPECT_FALSE(stopped_inside);
    EXPECT_EQ(s.now(), 40u);
    EXPECT_FALSE(self.running());
}

TEST(SimulatorPeriodicTask, SaveLoadAtTickBoundaryKeepsNextFireTime)
{
    // Reference: an uninterrupted chain, sampled past the boundary.
    Simulator a;
    std::vector<Cycles> a_fired;
    PeriodicTask ta(a, SnapTag::kSamplerTick, [&] {
        a_fired.push_back(a.now());
        return Cycles{100};
    });
    ta.start(100);
    a.run(200); // the t=200 tick has just fired and re-armed
    ASSERT_EQ(a_fired, (std::vector<Cycles>{100, 200}));

    auto save = hh::snap::Archive::forSave();
    a.serialize(save, [](const SnapTag &) -> Simulator::Callback {
        return {};
    });
    ta.serialize(save);
    ASSERT_TRUE(save.ok()) << save.error();
    a.run(450);

    Simulator b;
    std::vector<Cycles> b_fired;
    PeriodicTask tb(b, SnapTag::kSamplerTick, [&] {
        b_fired.push_back(b.now());
        return Cycles{100};
    });
    auto load = hh::snap::Archive::forLoad(save.take());
    b.serialize(load, [&](const SnapTag &t) -> Simulator::Callback {
        return t.kind == tb.kind() ? tb.rearm() : Simulator::Callback{};
    });
    tb.serialize(load);
    ASSERT_TRUE(load.ok()) << load.error();
    EXPECT_TRUE(tb.running());
    EXPECT_EQ(b.nextEventTime(), 300u);
    b.run(450);
    EXPECT_EQ(b_fired, (std::vector<Cycles>{300, 400}));
    EXPECT_EQ(a_fired, (std::vector<Cycles>{100, 200, 300, 400}));

    // The restored id is the live event's: stop() cancels it.
    EXPECT_TRUE(tb.stop());
    EXPECT_TRUE(b.idle());
}

TEST(SimulatorPeriodicTask, RunningByteContradictingPendingIdFailsLoad)
{
    for (const bool running : {false, true}) {
        auto save = hh::snap::Archive::forSave();
        bool byte = running;
        std::uint64_t id = running ? hh::sim::kInvalidEventId : 7;
        save.io(byte);
        save.io(id);

        Simulator s;
        PeriodicTask task(s, SnapTag::kLeaseTick,
                          [] { return Cycles{1}; });
        auto load = hh::snap::Archive::forLoad(save.take());
        task.serialize(load);
        EXPECT_FALSE(load.ok()) << "running byte " << running;
        EXPECT_NE(load.error().find("running byte"), std::string::npos)
            << load.error();
    }
}

TEST(Time, Conversions)
{
    using namespace hh::sim;
    EXPECT_EQ(usToCycles(1.0), 3000u);
    EXPECT_EQ(msToCycles(1.0), 3'000'000u);
    EXPECT_EQ(nsToCycles(100.0), 300u);
    EXPECT_DOUBLE_EQ(cyclesToUs(3000), 1.0);
    EXPECT_DOUBLE_EQ(cyclesToMs(3'000'000), 1.0);
    EXPECT_DOUBLE_EQ(cyclesToSec(kClockHz), 1.0);
    EXPECT_NEAR(cyclesToNs(3), 1.0, 1e-9);
}

TEST(Time, RoundTripStable)
{
    using namespace hh::sim;
    for (double us : {0.5, 1.0, 17.25, 1000.0}) {
        EXPECT_NEAR(cyclesToUs(usToCycles(us)), us, 1e-3);
    }
}
