/**
 * @file
 * Model-based fuzz: `EventQueue` must pop exactly what a
 * `std::set<(when, seq)>` reference model pops under randomized
 * interleavings of schedule / cancel / pop.
 *
 * Every operation is applied to the queue and the model with the same
 * arguments. The model's seq is the schedule-order ordinal, which is
 * also baked into each callback, so comparing the queue's
 * (when, ordinal) pops with the model's minimum checks the full
 * (time, seq) order. Cancels target the same scheduled event in both
 * and must agree on whether it was still live.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"

using hh::sim::Cycles;
using hh::sim::EventQueue;

namespace {

/** The reference model: live events ordered by (when, seq). */
using Model = std::set<std::pair<Cycles, std::uint64_t>>;

/**
 * Pop one event from both @p q and @p model and check they agree on
 * (when, ordinal).
 */
void
popBoth(EventQueue &q, Model &model, std::vector<std::uint64_t> &fired,
        Cycles &now)
{
    ASSERT_FALSE(model.empty());
    const auto want = *model.begin();
    model.erase(model.begin());
    ASSERT_EQ(q.nextTime(), want.first);
    Cycles when = 0;
    auto cb = q.pop(when);
    const std::size_t before = fired.size();
    cb();
    ASSERT_EQ(fired.size(), before + 1) << "callback did not fire";
    ASSERT_EQ(when, want.first);
    ASSERT_EQ(fired.back(), want.second)
        << "pop at t=" << when << " delivered ordinal " << fired.back()
        << ", model expected " << want.second;
    now = when;
}

/**
 * Drive the queue and the model through @p ops random operations. The
 * delay mix is shaped by @p nearWeight / @p farWeight / @p cancelProb
 * so distinct profiles stress same-cycle ties, deadlines far past the
 * current time, and the tombstone/compaction path respectively.
 */
void
fuzzRound(std::uint64_t seed, int ops, double nearWeight,
          double farWeight, double cancelProb)
{
    hh::sim::Rng rng(seed, 77);
    EventQueue q;
    Model model;

    std::vector<std::uint64_t> fired;
    // Per-ordinal ids and deadlines; an ordinal is "live" until
    // cancelled or popped.
    std::vector<hh::sim::EventId> ids;
    std::vector<Cycles> deadline;
    std::vector<std::uint64_t> cancellable;

    Cycles now = 0;

    for (int i = 0; i < ops; ++i) {
        const double r = rng.uniform();
        if (r < cancelProb && !cancellable.empty()) {
            const std::size_t pick = static_cast<std::size_t>(
                rng.uniformInt(cancellable.size()));
            const std::uint64_t ord = cancellable[pick];
            cancellable[pick] = cancellable.back();
            cancellable.pop_back();
            const bool live = model.erase({deadline[ord], ord}) == 1;
            ASSERT_EQ(q.cancel(ids[ord]), live)
                << "cancel liveness diverged, op " << i;
            continue;
        }
        if (r < cancelProb + 0.25 && !q.empty()) {
            ASSERT_NO_FATAL_FAILURE(popBoth(q, model, fired, now));
            continue;
        }
        // Schedule. Delay mix: ties at `now` exercise FIFO order;
        // near, mid and far deadlines interleave across the heap.
        Cycles delay = 0;
        const double d = rng.uniform();
        if (d < 0.15)
            delay = 0;
        else if (d < 0.15 + nearWeight)
            delay = rng.uniformInt(std::uint64_t{256});
        else if (d < 0.15 + nearWeight + farWeight)
            delay = rng.uniformInt(std::uint64_t{1} << 22);
        else
            delay = rng.uniformInt(std::uint64_t{1} << 14);
        const Cycles when = now + delay;
        const std::uint64_t ord = ids.size();
        ids.push_back(
            q.schedule(when, [&fired, ord] { fired.push_back(ord); }));
        deadline.push_back(when);
        model.insert({when, ord});
        cancellable.push_back(ord);
        ASSERT_EQ(q.size(), model.size());
    }

    // Drain everything that is left.
    while (!q.empty())
        ASSERT_NO_FATAL_FAILURE(popBoth(q, model, fired, now));
    EXPECT_TRUE(model.empty());
    EXPECT_EQ(q.monotonicViolations(), 0u);
}

} // namespace

TEST(EventQueueFuzz, NearFutureHeavy)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed)
        fuzzRound(seed, 4000, 0.70, 0.05, 0.10);
}

TEST(EventQueueFuzz, FarFutureHeavy)
{
    for (std::uint64_t seed = 11; seed <= 16; ++seed)
        fuzzRound(seed, 4000, 0.05, 0.70, 0.10);
}

TEST(EventQueueFuzz, CancelHeavy)
{
    for (std::uint64_t seed = 21; seed <= 26; ++seed)
        fuzzRound(seed, 4000, 0.30, 0.20, 0.45);
}

TEST(EventQueueFuzz, MixedLongRun)
{
    fuzzRound(99, 40000, 0.35, 0.25, 0.20);
}
