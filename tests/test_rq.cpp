/**
 * @file
 * Unit tests for the chunked hardware Request Queue and per-VM
 * subqueues (§4.1.2), including overflow and chunk donation.
 */

#include <gtest/gtest.h>

#include "cluster/server.h"
#include "cluster/system_config.h"
#include "core/controller.h"
#include "core/rq.h"

using hh::core::RequestQueue;
using hh::core::SubQueue;

TEST(RequestQueue, DefaultGeometryMatchesPaper)
{
    RequestQueue rq;
    EXPECT_EQ(rq.numChunks(), 32u);
    EXPECT_EQ(rq.entriesPerChunk(), 64u);
    EXPECT_EQ(rq.totalEntries(), 2048u);
    // §6.8: 2K entries of 66 bits.
    EXPECT_EQ(rq.storageBits(), 2048u * 66u);
}

TEST(RequestQueue, AllocateAllThenExhaust)
{
    RequestQueue rq(4, 8);
    std::vector<int> got;
    for (int i = 0; i < 4; ++i) {
        const int c = rq.allocChunk();
        ASSERT_GE(c, 0);
        got.push_back(c);
    }
    EXPECT_EQ(rq.allocChunk(), -1);
    EXPECT_EQ(rq.freeChunks(), 0u);
    rq.freeChunk(static_cast<unsigned>(got[0]));
    EXPECT_EQ(rq.freeChunks(), 1u);
}

TEST(RequestQueue, DoubleFreePanics)
{
    RequestQueue rq(2, 8);
    const int c = rq.allocChunk();
    rq.freeChunk(static_cast<unsigned>(c));
    EXPECT_THROW(rq.freeChunk(static_cast<unsigned>(c)),
                 std::logic_error);
}

TEST(RequestQueue, BadChunkPanics)
{
    RequestQueue rq(2, 8);
    EXPECT_THROW(rq.freeChunk(7), std::logic_error);
}

namespace {

/** Give a subqueue n chunks from the RQ. */
void
grow(SubQueue &q, RequestQueue &rq, unsigned n)
{
    for (unsigned i = 0; i < n; ++i) {
        const int c = rq.allocChunk();
        ASSERT_GE(c, 0);
        ASSERT_TRUE(q.addChunk(static_cast<unsigned>(c)));
    }
}

} // namespace

TEST(SubQueue, FifoOrder)
{
    RequestQueue rq(4, 8);
    SubQueue q(rq);
    grow(q, rq, 1);
    q.enqueue(10);
    q.enqueue(20);
    q.enqueue(30);
    EXPECT_EQ(q.dequeue().value(), 10u);
    EXPECT_EQ(q.dequeue().value(), 20u);
    EXPECT_EQ(q.dequeue().value(), 30u);
    EXPECT_FALSE(q.dequeue().has_value());
}

TEST(SubQueue, CapacityFromChunks)
{
    RequestQueue rq(4, 8);
    SubQueue q(rq);
    EXPECT_EQ(q.capacity(), 0u);
    grow(q, rq, 2);
    EXPECT_EQ(q.capacity(), 16u);
}

TEST(SubQueue, OverflowWhenFull)
{
    RequestQueue rq(4, 4);
    SubQueue q(rq);
    grow(q, rq, 1); // capacity 4
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_TRUE(q.enqueue(i));
    EXPECT_FALSE(q.enqueue(99)); // spills to overflow
    EXPECT_EQ(q.overflowSize(), 1u);
    EXPECT_EQ(q.occupancy(), 4u);
}

TEST(SubQueue, OverflowDrainsFifoOnCompletion)
{
    RequestQueue rq(4, 2);
    SubQueue q(rq);
    grow(q, rq, 1); // capacity 2
    q.enqueue(1);
    q.enqueue(2);
    q.enqueue(3); // overflow
    const auto a = q.dequeue();
    ASSERT_TRUE(a.has_value());
    // Dequeue freed no entry (1 is running); 3 drains when 1 ends.
    q.complete(*a);
    EXPECT_EQ(q.overflowSize(), 0u);
    EXPECT_EQ(q.dequeue().value(), 2u);
    EXPECT_EQ(q.dequeue().value(), 3u);
}

TEST(SubQueue, FifoPreservedThroughOverflow)
{
    RequestQueue rq(4, 2);
    SubQueue q(rq);
    grow(q, rq, 1);
    q.enqueue(1);
    q.enqueue(2);
    q.enqueue(3);
    // Even though an entry frees up, 4 must queue behind 3.
    const auto a = q.dequeue();
    q.complete(*a);
    q.enqueue(4);
    EXPECT_EQ(q.dequeue().value(), 2u);
    EXPECT_EQ(q.dequeue().value(), 3u);
}

TEST(SubQueue, BlockedLifecycle)
{
    RequestQueue rq(4, 8);
    SubQueue q(rq);
    grow(q, rq, 1);
    q.enqueue(5);
    const auto r = q.dequeue();
    ASSERT_TRUE(r.has_value());
    q.markBlocked(*r);
    EXPECT_FALSE(q.hasReady());
    EXPECT_EQ(q.occupancy(), 1u); // entry stays while blocked
    q.markReady(*r);
    EXPECT_TRUE(q.hasReady());
    // Unblocked requests resume at the head (oldest first).
    q.enqueue(6);
    EXPECT_EQ(q.dequeue().value(), 5u);
}

TEST(SubQueue, PreemptReturnsToHead)
{
    RequestQueue rq(4, 8);
    SubQueue q(rq);
    grow(q, rq, 1);
    q.enqueue(1);
    q.enqueue(2);
    const auto r = q.dequeue();
    q.preempt(*r); // Fig 10: ID5 becomes ready again
    EXPECT_EQ(q.dequeue().value(), 1u);
}

TEST(SubQueue, LifecyclePanicsOnBadStates)
{
    RequestQueue rq(4, 8);
    SubQueue q(rq);
    grow(q, rq, 1);
    q.enqueue(1);
    EXPECT_THROW(q.markBlocked(1), std::logic_error); // not running
    EXPECT_THROW(q.complete(1), std::logic_error);
    EXPECT_THROW(q.markReady(1), std::logic_error);
    const auto r = q.dequeue();
    EXPECT_THROW(q.markReady(*r), std::logic_error); // not blocked
}

TEST(SubQueue, ShedTailChunkSpillsYoungest)
{
    RequestQueue rq(4, 2);
    SubQueue q(rq);
    grow(q, rq, 2); // capacity 4
    for (std::uint64_t i = 1; i <= 4; ++i)
        q.enqueue(i);
    const int shed = q.shedTailChunk();
    EXPECT_GE(shed, 0);
    EXPECT_EQ(q.capacity(), 2u);
    EXPECT_EQ(q.occupancy(), 2u);
    EXPECT_EQ(q.overflowSize(), 2u);
    // FIFO preserved: 1 and 2 still in hardware.
    EXPECT_EQ(q.dequeue().value(), 1u);
}

TEST(SubQueue, ShedFromEmptyMapFails)
{
    RequestQueue rq(2, 2);
    SubQueue q(rq);
    EXPECT_EQ(q.shedTailChunk(), -1);
}

TEST(SubQueue, RqMapCapped32)
{
    RequestQueue rq(40, 1);
    SubQueue q(rq);
    for (unsigned i = 0; i < 32; ++i) {
        const int c = rq.allocChunk();
        ASSERT_TRUE(q.addChunk(static_cast<unsigned>(c)));
    }
    const int extra = rq.allocChunk();
    ASSERT_GE(extra, 0);
    EXPECT_FALSE(q.addChunk(static_cast<unsigned>(extra)));
    rq.freeChunk(static_cast<unsigned>(extra));
}

TEST(SubQueue, DestructorReturnsChunks)
{
    RequestQueue rq(4, 8);
    {
        SubQueue q(rq);
        grow(q, rq, 3);
        EXPECT_EQ(rq.freeChunks(), 1u);
    }
    EXPECT_EQ(rq.freeChunks(), 4u);
}

TEST(SubQueue, RqMapStorageMatchesPaper)
{
    // §6.8: 24 B RQ-Map = 32 entries x (5-bit id + valid).
    EXPECT_EQ(SubQueue::kRqMapBits, 192u);
    EXPECT_EQ(SubQueue::kRqMapBits / 8, 24u);
}

// ------------------------------------------------- enqueue contract

// SubQueue::enqueue never rejects: a `false` return means the payload
// was deferred to the in-memory overflow subqueue and will drain back
// into hardware on its own. A caller that misreads `false` as
// "rejected, retry later" would duplicate the request — this pins the
// exactly-once semantics down.
TEST(SubQueue, OverflowedEnqueueIsDeferredExactlyOnce)
{
    RequestQueue rq(2, 2);
    SubQueue q(rq);
    grow(q, rq, 1); // capacity 2

    EXPECT_TRUE(q.enqueue(1));
    EXPECT_TRUE(q.enqueue(2));
    // Third enqueue: deferred, not rejected.
    EXPECT_FALSE(q.enqueue(3));
    EXPECT_EQ(q.occupancy(), 2u);
    EXPECT_EQ(q.overflowSize(), 1u);
    // Every payload is accounted for exactly once.
    EXPECT_EQ(q.occupancy() + q.overflowSize(), 3u);

    // Drain: completing the running request frees a slot and pulls
    // payload 3 back into hardware in FIFO order, exactly once.
    auto got = q.dequeue();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 1u);
    q.complete(1);
    EXPECT_EQ(q.overflowSize(), 0u);
    EXPECT_EQ(q.occupancy(), 2u);
    got = q.dequeue();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 2u);
    q.complete(2);
    got = q.dequeue();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 3u);
    q.complete(3);
    // Nothing left anywhere: payload 3 entered hardware exactly once.
    EXPECT_FALSE(q.dequeue().has_value());
    EXPECT_EQ(q.occupancy(), 0u);
    EXPECT_EQ(q.overflowSize(), 0u);
    EXPECT_EQ(q.enqueues().value(), 3u);
    EXPECT_EQ(q.overflows().value(), 1u);
}

// FIFO fairness across the overflow boundary: once anything has
// overflowed, later arrivals queue behind it even if hardware slots
// free up in between.
TEST(SubQueue, ArrivalsQueueBehindOverflow)
{
    RequestQueue rq(2, 2);
    SubQueue q(rq);
    grow(q, rq, 1); // capacity 2

    EXPECT_TRUE(q.enqueue(1));
    EXPECT_TRUE(q.enqueue(2));
    EXPECT_FALSE(q.enqueue(3)); // overflow
    EXPECT_FALSE(q.enqueue(4)); // must queue behind 3
    auto got = q.dequeue();
    ASSERT_TRUE(got.has_value());
    q.complete(*got); // frees one slot: 3 drains, 4 stays behind
    EXPECT_EQ(q.overflowSize(), 1u);
    got = q.dequeue();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 2u);
    q.complete(2); // frees another slot: now 4 drains
    EXPECT_EQ(q.overflowSize(), 0u);
    got = q.dequeue();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 3u);
    got = q.dequeue();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 4u);
}

// ---------------------------------------------- teardown leak audit

// A subqueue destroyed while it still holds request payloads is a
// request leak; the destructor must surface it (warn + counter)
// instead of silently freeing the chunks.
TEST(SubQueue, DestructorCountsLeakedPayloads)
{
    SubQueue::resetTeardownPayloadLeaks();
    RequestQueue rq(2, 4);
    {
        SubQueue q(rq);
        grow(q, rq, 1);
        q.enqueue(1);
        q.enqueue(2);
        q.enqueue(3);
        auto got = q.dequeue();
        ASSERT_TRUE(got.has_value());
        q.markBlocked(*got);
        // Destroyed holding 2 ready + 1 blocked payloads.
    }
    EXPECT_EQ(SubQueue::teardownPayloadLeaks(), 3u);
    SubQueue::resetTeardownPayloadLeaks();
    EXPECT_EQ(SubQueue::teardownPayloadLeaks(), 0u);
}

TEST(SubQueue, CleanDestructionLeaksNothing)
{
    SubQueue::resetTeardownPayloadLeaks();
    RequestQueue rq(2, 4);
    {
        SubQueue q(rq);
        grow(q, rq, 1);
        q.enqueue(7);
        auto got = q.dequeue();
        ASSERT_TRUE(got.has_value());
        q.complete(*got);
    }
    EXPECT_EQ(SubQueue::teardownPayloadLeaks(), 0u);
}

TEST(SubQueue, DestructorCountsOverflowLeaks)
{
    SubQueue::resetTeardownPayloadLeaks();
    RequestQueue rq(2, 1);
    {
        SubQueue q(rq);
        grow(q, rq, 1); // capacity 1
        q.enqueue(1);
        q.enqueue(2); // overflows
    }
    EXPECT_EQ(SubQueue::teardownPayloadLeaks(), 2u);
    SubQueue::resetTeardownPayloadLeaks();
}

// A server dropped mid-run (before finished()) abandons its in-flight
// requests on purpose: that is not a leak and must not be counted.
TEST(SubQueue, ServerTornDownMidRunLeaksNothing)
{
    SubQueue::resetTeardownPayloadLeaks();
    hh::cluster::SystemConfig cfg = hh::cluster::makeSystem(
        hh::cluster::SystemKind::HardHarvestBlock);
    cfg.requestsPerVm = 40;
    {
        hh::cluster::ServerSim sim(cfg, "BFS", 3);
        sim.startRun();
        sim.advanceRun(hh::sim::msToCycles(0.5));
        ASSERT_FALSE(sim.finished());
        // Non-vacuous: some subqueue still holds requests.
        std::size_t held = 0;
        for (std::uint32_t vm = 0; vm <= cfg.primaryVms; ++vm) {
            if (const auto *qm = sim.controller().qmFor(vm)) {
                held += qm->queue().occupancy() +
                        qm->queue().overflowSize();
            }
        }
        EXPECT_GT(held, 0u);
    }
    EXPECT_EQ(SubQueue::teardownPayloadLeaks(), 0u);
}
