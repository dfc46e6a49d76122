/**
 * @file
 * JobScheduler contract tests: deduplication, bit-identity of engine
 * results against direct runServer() calls, ledger memoization across
 * scheduler instances, the non-cacheable bypass for observability
 * configs, and custom-job replay.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>

#include "cluster/experiment.h"
#include "cluster/system_config.h"
#include "exp/codec.h"
#include "exp/ledger.h"
#include "exp/scheduler.h"

using hh::cluster::makeSystem;
using hh::cluster::SystemConfig;
using hh::cluster::SystemKind;
using hh::exp::encodeServerResults;
using hh::exp::JobScheduler;
using hh::exp::ResultLedger;

namespace {

/** Tiny-but-real server config; ~1s per cold run. */
SystemConfig
tinyConfig()
{
    SystemConfig cfg = makeSystem(SystemKind::HardHarvestBlock);
    cfg.requestsPerVm = 30;
    cfg.accessSampling = 32;
    return cfg;
}

std::string
tmpLedger(const std::string &name)
{
    const std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

std::unique_ptr<ResultLedger>
openLedger(const std::string &path)
{
    ResultLedger::Meta meta;
    meta.command = "test_exp_scheduler";
    meta.hardwareThreads = 2;
    meta.poolWorkers = 2;
    std::string err;
    auto ledger = ResultLedger::open(path, meta, &err);
    EXPECT_NE(ledger, nullptr) << err;
    return ledger;
}

} // namespace

TEST(ExpScheduler, DedupAndBitIdentityToDirectRun)
{
    const SystemConfig cfg = tinyConfig();
    JobScheduler sched;
    const auto h1 = sched.addServer(cfg, "BFS", 1);
    const auto h2 = sched.addServer(cfg, "BFS", 1);
    sched.run();

    EXPECT_EQ(sched.stats().submitted, 2u);
    EXPECT_EQ(sched.stats().unique, 1u);
    EXPECT_EQ(sched.stats().simulated, 1u);

    const std::string via_engine =
        encodeServerResults(sched.serverResult(h1));
    EXPECT_EQ(via_engine, encodeServerResults(sched.serverResult(h2)));
    EXPECT_EQ(via_engine, encodeServerResults(
                              hh::cluster::runServer(cfg, "BFS", 1)));

    // A different seed is a different job.
    JobScheduler sched2;
    sched2.addServer(cfg, "BFS", 1);
    sched2.addServer(cfg, "BFS", 2);
    EXPECT_EQ(sched2.stats().unique, 2u);

    // So is a different arrival budget: each point of a budget sweep
    // runs on its own and matches a standalone run at that budget.
    SystemConfig larger = cfg;
    larger.requestsPerVm = 2 * cfg.requestsPerVm;
    JobScheduler sweep;
    const auto small_h = sweep.addServer(cfg, "BFS", 1);
    const auto large_h = sweep.addServer(larger, "BFS", 1);
    EXPECT_EQ(sweep.stats().unique, 2u);
    sweep.run();
    EXPECT_EQ(encodeServerResults(sweep.serverResult(small_h)),
              via_engine);
    EXPECT_EQ(encodeServerResults(sweep.serverResult(large_h)),
              encodeServerResults(
                  hh::cluster::runServer(larger, "BFS", 1)));
}

TEST(ExpScheduler, LedgerMemoizesAcrossSchedulers)
{
    const std::string path = tmpLedger("hh_sched_memo.jsonl");
    const SystemConfig cfg = tinyConfig();

    std::string first;
    {
        auto ledger = openLedger(path);
        JobScheduler::Options opts;
        opts.ledger = ledger.get();
        JobScheduler sched(opts);
        const auto h = sched.addServer(cfg, "BFS", 1);
        const auto c = sched.addCustom("unit", "memo-key", 7, [] {
            return std::string("custom payload");
        });
        sched.run();
        EXPECT_EQ(sched.stats().simulated, 2u);
        EXPECT_EQ(ledger->rows(), 2u);
        first = encodeServerResults(sched.serverResult(h));
        EXPECT_EQ(sched.payload(c), "custom payload");
    }

    // A fresh scheduler against the same ledger simulates nothing and
    // must not even invoke the custom job's function.
    auto ledger = openLedger(path);
    EXPECT_EQ(ledger->recoveredRows(), 2u);
    JobScheduler::Options opts;
    opts.ledger = ledger.get();
    JobScheduler sched(opts);
    const auto h = sched.addServer(cfg, "BFS", 1);
    std::atomic<int> calls{0};
    const auto c = sched.addCustom("unit", "memo-key", 7, [&] {
        ++calls;
        return std::string("custom payload");
    });
    sched.run();
    EXPECT_EQ(sched.stats().memoized, 2u);
    EXPECT_EQ(sched.stats().simulated, 0u);
    EXPECT_EQ(calls.load(), 0);
    EXPECT_EQ(encodeServerResults(sched.serverResult(h)), first);
    EXPECT_EQ(sched.payload(c), "custom payload");
}

TEST(ExpScheduler, ObservabilityConfigsBypassTheCache)
{
    const std::string path = tmpLedger("hh_sched_obs.jsonl");
    SystemConfig cfg = tinyConfig();
    cfg.traceEnabled = true;
    cfg.traceCapacity = 1u << 12;

    auto ledger = openLedger(path);
    JobScheduler::Options opts;
    opts.ledger = ledger.get();
    {
        JobScheduler sched(opts);
        sched.addServer(cfg, "BFS", 1);
        sched.run();
        EXPECT_EQ(sched.stats().simulated, 1u);
    }
    // Nothing was memoized, and a second scheduler re-simulates.
    EXPECT_EQ(ledger->rows(), 0u);
    JobScheduler sched(opts);
    sched.addServer(cfg, "BFS", 1);
    sched.run();
    EXPECT_EQ(sched.stats().memoized, 0u);
    EXPECT_EQ(sched.stats().simulated, 1u);
}

TEST(ExpScheduler, SpecPointsRunThroughTheEngine)
{
    hh::exp::ExperimentSpec spec;
    spec.name = "unit";
    spec.systems = {"NoHarvest"};
    spec.overrides = {{"requestsPerVm", "20"},
                      {"accessSampling", "32"}};
    spec.seeds = {1, 2};

    JobScheduler sched;
    const auto handles = sched.addSpec(spec);
    ASSERT_EQ(handles.size(), 2u);
    sched.run();
    EXPECT_EQ(sched.stats().unique, 2u);
    EXPECT_GT(sched.serverResult(handles[0]).avgP99Ms(), 0.0);
}
