/**
 * @file
 * Unit tests for the experiment-level thread pool, the
 * deterministic parallel sweep runner, and the profile counters that
 * concurrent workers add into.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/parallel.h"
#include "sim/prof.h"
#include "sim/thread_pool.h"

using hh::cluster::resolveWorkers;
using hh::cluster::runParallel;
using hh::sim::ThreadPool;

TEST(ThreadPool, DefaultWorkersPositive)
{
    EXPECT_GE(ThreadPool::defaultWorkers(), 1u);
}

TEST(ThreadPool, RunsAllSubmittedJobs)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.workers(), 4u);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    pool.submit([&count] { ++count; });
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, WaitOnIdlePoolReturns)
{
    ThreadPool pool(2);
    pool.wait(); // nothing submitted; must not hang
}

TEST(ThreadPool, DestructorDrainsPendingJobs)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 10; ++i) {
            pool.submit([&count] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
                ++count;
            });
        }
    }
    EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, FirstExceptionPropagatesFromWait)
{
    ThreadPool pool(2);
    std::atomic<int> completed{0};
    pool.submit([] { throw std::runtime_error("job failed"); });
    for (int i = 0; i < 20; ++i)
        pool.submit([&completed] { ++completed; });
    try {
        pool.wait();
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "job failed");
    }
    // Remaining jobs still ran.
    EXPECT_EQ(completed.load(), 20);
    // And a subsequent wait() does not rethrow.
    pool.wait();
}

TEST(ThreadPool, JobsActuallyRunConcurrently)
{
    // With >= 2 workers, two jobs that rendezvous with each other can
    // only finish if they run at the same time.
    if (ThreadPool::defaultWorkers() < 2)
        GTEST_SKIP() << "single-core host";
    ThreadPool pool(2);
    std::atomic<int> arrived{0};
    for (int i = 0; i < 2; ++i) {
        pool.submit([&arrived] {
            ++arrived;
            const auto deadline = std::chrono::steady_clock::now() +
                                  std::chrono::seconds(10);
            while (arrived.load() < 2 &&
                   std::chrono::steady_clock::now() < deadline) {
                std::this_thread::yield();
            }
        });
    }
    pool.wait();
    EXPECT_EQ(arrived.load(), 2);
}

TEST(ParallelRunner, ResolveWorkersClampsToTasks)
{
    EXPECT_EQ(resolveWorkers(8, 3), 3u);
    EXPECT_EQ(resolveWorkers(2, 100), 2u);
    EXPECT_GE(resolveWorkers(0, 100), 1u);
    EXPECT_EQ(resolveWorkers(4, 0), 1u);
}

TEST(ParallelRunner, ResultsIndexedRegardlessOfWorkers)
{
    const auto square = [](std::size_t i) {
        return static_cast<std::uint64_t>(i) * i;
    };
    const auto seq = runParallel<std::uint64_t>(64, square, 1);
    for (const unsigned workers : {2u, 4u, 8u}) {
        const auto par =
            runParallel<std::uint64_t>(64, square, workers);
        EXPECT_EQ(par, seq) << workers << " workers";
    }
}

TEST(ParallelRunner, EachIndexRunsExactlyOnce)
{
    std::vector<std::atomic<int>> hits(100);
    runParallel<int>(
        100,
        [&hits](std::size_t i) {
            ++hits[i];
            return 0;
        },
        4);
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelRunner, ZeroTasksReturnsEmpty)
{
    const auto r =
        runParallel<int>(0, [](std::size_t) { return 1; }, 4);
    EXPECT_TRUE(r.empty());
}

TEST(ParallelRunner, SequentialPathRunsInOrder)
{
    std::vector<std::size_t> order;
    runParallel<int>(
        5,
        [&order](std::size_t i) {
            order.push_back(i);
            return 0;
        },
        1);
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelRunner, ExceptionPropagates)
{
    EXPECT_THROW(runParallel<int>(
                     8,
                     [](std::size_t i) {
                         if (i == 3)
                             throw std::runtime_error("task 3");
                         return 0;
                     },
                     4),
                 std::runtime_error);
}

TEST(ParallelRunner, StringResults)
{
    const auto r = runParallel<std::string>(
        4, [](std::size_t i) { return std::to_string(i * 11); }, 2);
    EXPECT_EQ(r, (std::vector<std::string>{"0", "11", "22", "33"}));
}

TEST(Prof, ConcurrentScopesSumExactly)
{
    namespace prof = hh::sim::prof;
    static prof::Site site("test.prof.concurrent");
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kScopes = 100000;
    prof::reset();
    prof::setEnabled(true);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([] {
            for (std::uint64_t i = 0; i < kScopes; ++i)
                prof::Scope scope(site);
        });
    }
    for (auto &t : threads)
        t.join();
    prof::setEnabled(false);

    std::uint64_t hits = 0;
    for (const auto &s : prof::snapshot()) {
        if (s.name == "test.prof.concurrent")
            hits = s.hits;
    }
    EXPECT_EQ(hits, kThreads * kScopes);

    prof::reset();
    for (const auto &slot : site.slots) {
        EXPECT_EQ(slot.cycles.load(), 0u);
        EXPECT_EQ(slot.hits.load(), 0u);
    }
    for (const auto &s : prof::snapshot())
        EXPECT_NE(s.name, "test.prof.concurrent");
}

TEST(Prof, CountedScopeRecordsNCalls)
{
    // One scope timing a run of n operations counts n calls: given up
    // front, or set before the scope closes. Sites sharing a name sum
    // into one sample.
    namespace prof = hh::sim::prof;
    static prof::Site run_site("test.prof.counted");
    static prof::Site call_site("test.prof.counted");
    prof::reset();
    prof::setEnabled(true);
    { prof::Scope scope(run_site, 1000); }
    {
        prof::Scope scope(run_site, 0);
        scope.setCalls(24);
    }
    { prof::Scope scope(call_site); }
    { prof::Scope empty(run_site, 0); }
    prof::setEnabled(false);
    // Disabled scopes record nothing, whatever their count.
    { prof::Scope scope(run_site, 5); }

    std::uint64_t hits = 0;
    unsigned samples = 0;
    for (const auto &s : prof::snapshot()) {
        if (s.name == "test.prof.counted") {
            hits = s.hits;
            ++samples;
        }
    }
    EXPECT_EQ(samples, 1u);
    EXPECT_EQ(hits, 1000u + 24u + 1u);
    prof::reset();
}
