/**
 * @file
 * Harvest telemetry plane tests (PR 7): ObservationView delta math
 * and epoch bookkeeping, the telemetry-off serialization prefix
 * property, TelemetryHub economics and JSONL row checksums, and the
 * byte-identity contract of the telemetry products across worker
 * counts and checkpoint save/load/resume.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "cluster/checkpoint.h"
#include "cluster/experiment.h"
#include "cluster/server.h"
#include "cluster/telemetry_hub.h"
#include "snapshot/archive.h"
#include "stats/observation_view.h"
#include "workload/batch.h"

using namespace hh::cluster;
using hh::stats::ObservationView;
using hh::stats::ServerCounters;
using hh::stats::VmCounters;

namespace {

/** Reduced-scale telemetry-enabled cluster config. */
SystemConfig
telemetryConfig()
{
    SystemConfig cfg = makeSystem(SystemKind::HardHarvestBlock);
    cfg.requestsPerVm = 40;
    cfg.accessSampling = 16;
    cfg.telemetryEnabled = true;
    cfg.telemetryPeriod = hh::sim::msToCycles(1.0);
    return cfg;
}

/** The ledger's FNV-1a, re-derived to validate hub row checksums. */
std::uint64_t
fnv64(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

} // namespace

TEST(ObservationView, FirstEpochDiffsAgainstZero)
{
    ObservationView view;
    ServerCounters cum;
    cum.t = 1000;
    cum.vms.resize(1);
    VmCounters &vc = cum.vms[0];
    vc.busyCycles = 500;
    vc.coresBound = 1;
    vc.accesses = 2000;
    vc.misses = 4;
    vc.validLines = 50;
    vc.lineCapacity = 100;
    vc.rqReady = 3;
    vc.lentCycles = 100;
    vc.reclaims = 2;
    vc.reclaimCycles = 300;
    cum.batchLoaned = 5;
    cum.batchNative = 7;
    view.record(cum);

    ASSERT_EQ(view.rows().size(), 1u);
    const auto &row = view.rows()[0];
    EXPECT_EQ(row.epoch, 1u);
    EXPECT_EQ(row.t, 1000u);
    ASSERT_EQ(row.vms.size(), 1u);
    const auto &f = row.vms[0];
    EXPECT_DOUBLE_EQ(f.coreUtil, 0.5);        // 500 / (1000 * 1)
    EXPECT_DOUBLE_EQ(f.mpki, 2.0);            // 4 / 2000 * 1000
    EXPECT_DOUBLE_EQ(f.cacheOccupancy, 0.5);  // 50 / 100
    EXPECT_EQ(f.rqReady, 3u);
    EXPECT_EQ(f.lentCycles, 100u);
    EXPECT_EQ(f.reclaims, 2u);
    EXPECT_EQ(f.reclaimCycles, 300u);
    EXPECT_EQ(row.batchLoanedDelta, 5u);
    EXPECT_EQ(row.batchNativeDelta, 7u);
    EXPECT_EQ(row.harvestedCyclesDelta, 100u);
    EXPECT_EQ(row.reclaimsDelta, 2u);
}

TEST(ObservationView, SecondEpochUsesDeltas)
{
    ObservationView view;
    ServerCounters cum;
    cum.t = 1000;
    cum.vms.resize(1);
    cum.vms[0].busyCycles = 500;
    cum.vms[0].coresBound = 1;
    cum.vms[0].accesses = 2000;
    cum.vms[0].misses = 4;
    view.record(cum);

    cum.t = 3000; // epoch of 2000 cycles
    cum.vms[0].busyCycles = 1500;
    cum.vms[0].accesses = 2000; // no accesses this epoch
    cum.vms[0].misses = 4;
    cum.batchLoaned = 9;
    view.record(cum);

    ASSERT_EQ(view.rows().size(), 2u);
    const auto &row = view.rows()[1];
    EXPECT_EQ(row.epoch, 2u);
    EXPECT_DOUBLE_EQ(row.vms[0].coreUtil, 0.5); // 1000 / (2000 * 1)
    EXPECT_DOUBLE_EQ(row.vms[0].mpki, 0.0);     // no accesses: 0
    EXPECT_EQ(row.batchLoanedDelta, 9u);
}

TEST(ObservationView, SameTimeRecordIsIgnored)
{
    ObservationView view;
    ServerCounters cum;
    cum.t = 500;
    cum.vms.resize(1);
    view.record(cum);
    view.record(cum); // stop() colliding with the last tick
    EXPECT_EQ(view.rows().size(), 1u);
    EXPECT_EQ(view.epochs(), 1u);
}

TEST(ObservationView, SerializeRoundTripsRowsAndBaseline)
{
    ObservationView view;
    ServerCounters cum;
    cum.t = 1000;
    cum.vms.resize(2);
    cum.vms[0].busyCycles = 700;
    cum.vms[0].coresBound = 2;
    cum.vms[1].lentCycles = 40;
    cum.batchLoaned = 3;
    view.record(cum);

    auto save = hh::snap::Archive::forSave();
    view.serialize(save);
    const auto blob = save.take();

    ObservationView loaded;
    auto load = hh::snap::Archive::forLoad(blob);
    loaded.serialize(load);
    ASSERT_TRUE(load.ok()) << load.error();
    ASSERT_EQ(loaded.rows().size(), 1u);
    EXPECT_DOUBLE_EQ(loaded.rows()[0].vms[0].coreUtil,
                     view.rows()[0].vms[0].coreUtil);

    // The restored baseline must diff the next epoch identically.
    cum.t = 2000;
    cum.vms[0].busyCycles = 900;
    cum.batchLoaned = 8;
    view.record(cum);
    loaded.record(cum);
    ASSERT_EQ(loaded.rows().size(), 2u);
    EXPECT_EQ(loaded.rows()[1].batchLoanedDelta,
              view.rows()[1].batchLoanedDelta);
    EXPECT_DOUBLE_EQ(loaded.rows()[1].vms[0].coreUtil,
                     view.rows()[1].vms[0].coreUtil);
}

TEST(Telemetry, OffRunSerializationIsPrefixOfOnRun)
{
    SystemConfig off = telemetryConfig();
    off.telemetryEnabled = false;
    const SystemConfig on = telemetryConfig();
    const ClusterResults off_res = runCluster(off, 2, 5, 2);
    const ClusterResults on_res = runCluster(on, 2, 5, 2);
    const std::string off_s = off_res.serialized();
    const std::string on_s = on_res.serialized();
    // The telemetry plane observes without perturbing: the on-run's
    // serialization extends the off-run's byte-for-byte.
    ASSERT_FALSE(off_s.empty());
    EXPECT_NE(on_s, off_s);
    EXPECT_EQ(on_s.rfind(off_s, 0), 0u);
    EXPECT_NE(on_s.find("telemetry server0"), std::string::npos);
    EXPECT_EQ(off_s.find("telemetry"), std::string::npos);
}

TEST(Telemetry, HubProductsAreWorkerCountInvariant)
{
    const SystemConfig cfg = telemetryConfig();
    const TelemetryHub h1(cfg, runCluster(cfg, 2, 5, 1).serverTelemetry);
    const TelemetryHub h4(cfg, runCluster(cfg, 2, 5, 4).serverTelemetry);
    ASSERT_FALSE(h1.timeline().empty());
    EXPECT_EQ(h1.jsonl(), h4.jsonl());
    EXPECT_EQ(h1.counterTrackJson(), h4.counterTrackJson());
    EXPECT_EQ(h1.report(), h4.report());
}

TEST(Telemetry, CheckpointResumeReproducesTelemetryByteExact)
{
    const SystemConfig cfg = telemetryConfig();
    const unsigned servers = 2;
    const std::uint64_t seed = 5;
    const ClusterResults full = runCluster(cfg, servers, seed, 2);
    const std::string want = full.serialized();
    const std::string want_jsonl =
        TelemetryHub(cfg, full.serverTelemetry).jsonl();

    const std::string path = tmpPath("hh_telemetry_ckpt.hhcp");
    std::string err;
    ASSERT_TRUE(checkpointClusterAt(cfg, servers, seed, 2,
                                    hh::sim::msToCycles(3.0), path,
                                    &err))
        << err;
    for (const unsigned workers : {1u, 4u}) {
        auto resumed = resumeCluster(path, cfg, workers, &err);
        ASSERT_TRUE(resumed.has_value()) << err;
        EXPECT_EQ(resumed->serialized(), want)
            << "workers=" << workers;
        const TelemetryHub hub(cfg,
                               std::move(resumed->serverTelemetry));
        EXPECT_EQ(hub.jsonl(), want_jsonl) << "workers=" << workers;
    }
}

TEST(Telemetry, MismatchedTelemetryFlagRejectsCheckpoint)
{
    // The config fingerprint covers the telemetry knobs, so resuming
    // with a different telemetry setting is refused up front instead
    // of desynchronizing the archive mid-load.
    const SystemConfig cfg = telemetryConfig();
    const std::string path = tmpPath("hh_telemetry_flag.hhcp");
    std::string err;
    ASSERT_TRUE(checkpointClusterAt(cfg, 2, 5, 2,
                                    hh::sim::msToCycles(2.0), path,
                                    &err))
        << err;
    SystemConfig other = cfg;
    other.telemetryEnabled = false;
    const auto resumed = resumeCluster(path, other, 2, &err);
    EXPECT_FALSE(resumed.has_value());
    EXPECT_NE(err.find("different SystemConfig"), std::string::npos)
        << err;
}

TEST(Telemetry, HubEconomicsAreInternallyConsistent)
{
    const SystemConfig cfg = telemetryConfig();
    ClusterResults res = runCluster(cfg, 2, 5, 2);

    std::uint64_t batch_total = 0;
    for (const auto &t : res.serverTelemetry)
        batch_total += t.totals.batchLoaned + t.totals.batchNative;
    const TelemetryHub hub(cfg, std::move(res.serverTelemetry));
    const TelemetrySummary s = hub.summary();
    EXPECT_EQ(s.servers, 2u);
    EXPECT_EQ(s.coresPerServer, cfg.cores);
    EXPECT_GT(s.horizonSec, 0.0);
    EXPECT_EQ(s.batchLoaned + s.batchNative, batch_total);
    // The harvesting systems lend cores, so a HardHarvestBlock run
    // must show harvested capacity, reclaims, and a sane tail order.
    EXPECT_GT(s.harvestedCoreSeconds, 0.0);
    EXPECT_GT(s.reclaims, 0u);
    EXPECT_GE(s.reclaimP99Us, s.reclaimP50Us);
    EXPECT_GT(s.latencyP99Ms, 0.0);

    // Timeline deltas sum to the run totals.
    std::uint64_t loaned = 0, reclaims = 0;
    for (const auto &f : hub.timeline()) {
        EXPECT_GE(f.harvestIntensity, 0.0);
        EXPECT_LE(f.harvestIntensity, 1.0);
        loaned += f.batchLoanedDelta;
        reclaims += f.reclaimsDelta;
    }
    EXPECT_EQ(loaned, s.batchLoaned);
    EXPECT_EQ(reclaims, s.reclaims);
}

TEST(Telemetry, ServerTotalsAgreeWithResultCounters)
{
    // The totals are one counters() read at the run's end; tie each
    // field to a counter the server keeps apart from the harvest taps,
    // so a totals field that reads the wrong tap shows here.
    SystemConfig cfg = telemetryConfig();
    cfg.cacheLendEnabled = true;
    cfg.cacheLendPeriod = hh::sim::msToCycles(0.25);
    cfg.cacheLendTerm = hh::sim::msToCycles(1.0);
    const unsigned servers = 2;
    const auto batch = hh::workload::batchApplications();
    std::vector<ServerResults> runs;
    for (unsigned s = 0; s < servers; ++s)
        runs.push_back(runServer(cfg, batch[s].name, 5 + s));

    ServerCounters sum;
    for (const auto &r : runs) {
        const ServerCounters &c = r.telemetry.totals;
        EXPECT_EQ(c.reclaims(), r.coreReclaims);
        EXPECT_EQ(c.batchLoaned + c.batchNative, r.batchTasksCompleted);
        EXPECT_EQ(hh::sim::cyclesToSec(c.t), r.elapsedSec);
        sum.leaseGrants += c.leaseGrants;
        sum.leaseRecalls += c.leaseRecalls;
        sum.leaseExpiries += c.leaseExpiries;
        sum.leaseFlushedLines += c.leaseFlushedLines;
        sum.leaseWayCycles += c.leaseWayCycles;
    }
    EXPECT_GT(sum.leaseGrants, 0u);
    const ClusterResults res =
        aggregateClusterResults(cfg, servers, std::move(runs));
    EXPECT_EQ(res.leaseGrants, sum.leaseGrants);
    EXPECT_EQ(res.leaseRecalls, sum.leaseRecalls);
    EXPECT_EQ(res.leaseExpiries, sum.leaseExpiries);
    EXPECT_EQ(res.leaseFlushedLines, sum.leaseFlushedLines);
    EXPECT_EQ(res.leaseWayCycles, sum.leaseWayCycles);
}

TEST(Telemetry, EpochRowsSumToTheDrainCounters)
{
    // The last epoch row is taken when the run drains, after the
    // all-done end time the totals are read at. Batch slices finish
    // and reclaims happen only while requests are live, so those
    // counts agree with the totals too; loans still open keep
    // accruing lent cycles through the drain tail.
    const SystemConfig cfg = telemetryConfig();
    const auto batch = hh::workload::batchApplications();
    std::uint64_t tail_cycles = 0;
    for (unsigned s = 0; s < 2; ++s) {
        ServerSim sim(cfg, batch[s].name, 5 + s);
        sim.startRun();
        sim.advanceRun(ServerSim::horizon());
        const ServerResults r = sim.finishRun();
        const ServerCounters drain = sim.counters(sim.now());
        const ServerCounters &totals = r.telemetry.totals;
        ASSERT_FALSE(r.telemetry.rows.empty());
        EXPECT_EQ(r.telemetry.rows.back().t, sim.now());
        EXPECT_LE(totals.t, drain.t);

        std::uint64_t loaned = 0, native = 0, harvested = 0,
                      reclaims = 0;
        std::vector<std::uint64_t> vm_lent(drain.vms.size(), 0);
        for (const auto &row : r.telemetry.rows) {
            loaned += row.batchLoanedDelta;
            native += row.batchNativeDelta;
            harvested += row.harvestedCyclesDelta;
            reclaims += row.reclaimsDelta;
            for (const auto &vm : row.vms)
                vm_lent[vm.vm] += vm.lentCycles;
        }
        EXPECT_EQ(loaned, drain.batchLoaned);
        EXPECT_EQ(native, drain.batchNative);
        EXPECT_EQ(harvested, drain.harvestedCycles());
        EXPECT_EQ(reclaims, drain.reclaims());
        for (std::size_t v = 0; v < vm_lent.size(); ++v)
            EXPECT_EQ(vm_lent[v], drain.vms[v].lentCycles) << "vm " << v;

        EXPECT_EQ(loaned, totals.batchLoaned);
        EXPECT_EQ(native, totals.batchNative);
        EXPECT_EQ(reclaims, totals.reclaims());
        EXPECT_GE(harvested, totals.harvestedCycles());
        tail_cycles += harvested - totals.harvestedCycles();
    }
    // The drain tail is real: some loan outlives the last request.
    EXPECT_GT(tail_cycles, 0u);
}

TEST(Telemetry, JsonlRowsCarryValidChecksums)
{
    const SystemConfig cfg = telemetryConfig();
    const TelemetryHub hub(cfg, runCluster(cfg, 2, 5, 2).serverTelemetry);
    const std::string jsonl = hub.jsonl();

    std::istringstream is(jsonl);
    std::string line;
    std::size_t rows = 0;
    bool saw_header = false, saw_epoch = false, saw_vm = false,
         saw_econ = false;
    while (std::getline(is, line)) {
        ++rows;
        const auto crc_pos = line.rfind(",\"crc\":");
        ASSERT_NE(crc_pos, std::string::npos) << line;
        ASSERT_EQ(line.back(), '}') << line;
        const std::uint64_t stored = std::stoull(
            line.substr(crc_pos + 7,
                        line.size() - crc_pos - 8));
        EXPECT_EQ(stored, fnv64(line.substr(0, crc_pos))) << line;
        saw_header |= line.find("\"kind\":\"header\"") == 1;
        saw_epoch |= line.find("\"kind\":\"epoch\"") == 1;
        saw_vm |= line.find("\"kind\":\"vm\"") == 1;
        saw_econ |= line.find("\"kind\":\"economics\"") == 1;
    }
    EXPECT_GT(rows, 3u);
    EXPECT_TRUE(saw_header);
    EXPECT_TRUE(saw_epoch);
    EXPECT_TRUE(saw_vm);
    EXPECT_TRUE(saw_econ);
    // No worker-count or host stamps: they would break the
    // any-worker-count byte-identity contract.
    EXPECT_EQ(jsonl.find("workers"), std::string::npos);
    EXPECT_EQ(jsonl.find("hardware_threads"), std::string::npos);
}
