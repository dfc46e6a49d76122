/**
 * @file
 * Cluster-level checkpoint contract tests: byte-identity of
 * `run(0 -> end)` vs `run(0 -> T) -> save -> load -> run(T -> end)`
 * for several T and worker counts, rejection of mismatched format
 * versions and SystemConfigs, periodic checkpointing and the
 * pre-violation dump.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/checkpoint.h"
#include "cluster/experiment.h"
#include "snapshot/archive.h"
#include "snapshot/file.h"
#include "stats/sampler.h"
#include "workload/batch.h"

using namespace hh::cluster;

namespace {

/**
 * Reduced-scale cluster with every observability surface on, so
 * serialized() covers metrics, traces and the audit section and the
 * byte-identity assertion is as strict as the subsystem gets.
 */
SystemConfig
fullObservabilityConfig()
{
    SystemConfig cfg = makeSystem(SystemKind::HardHarvestBlock);
    cfg.requestsPerVm = 40;
    cfg.accessSampling = 16;
    cfg.traceEnabled = true;
    cfg.traceCapacity = 1u << 14;
    cfg.metricsEnabled = true;
    cfg.metricsPeriod = hh::sim::msToCycles(1.0);
    cfg.auditEnabled = true;
    cfg.auditPeriod = 4096;
    return cfg;
}

/**
 * Every periodic service at once: the metric sampler, the fault
 * injector, the telemetry plane, the hysteresis policy's epoch tick
 * and the cache-lease tick. The shortened lease period and term force
 * grant/expiry rounds before the checkpoint.
 */
SystemConfig
allPeriodicServicesConfig()
{
    SystemConfig cfg = makeSystem(SystemKind::HardHarvestBlock);
    cfg.requestsPerVm = 40;
    cfg.accessSampling = 32;
    cfg.metricsEnabled = true;
    cfg.metricsPeriod = hh::sim::msToCycles(0.5);
    cfg.faults.enabled = true;
    cfg.telemetryEnabled = true;
    cfg.policy = "hysteresis";
    cfg.cacheLendEnabled = true;
    cfg.cacheLendPeriod = hh::sim::msToCycles(0.25);
    cfg.cacheLendTerm = hh::sim::msToCycles(1.0);
    return cfg;
}

/** The known-violating PR-1 race configuration (see test_audit_fuzz). */
SystemConfig
violatingConfig()
{
    SystemConfig cfg = makeSystem(SystemKind::HardHarvestBlock);
    cfg.requestsPerVm = 30;
    cfg.accessSampling = 32;
    cfg.auditEnabled = true;
    cfg.auditPeriod = 64;
    cfg.auditStopOnViolation = true;
    cfg.faults.enabled = true;
    cfg.faults.resurrectLendRace = true;
    cfg.faults.meanPeriod = hh::sim::usToCycles(5);
    cfg.faults.startAt = hh::sim::usToCycles(10);
    cfg.faults.actionsPerTick = 6;
    return cfg;
}

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

} // namespace

/**
 * At @p T, every server of the all-services input still has all five
 * periodic ticks pending: no server finished (which stops them all)
 * and the injector's chain has not run out at maxActions.
 */
void
expectAllPeriodicTicksPending(const SystemConfig &cfg, unsigned servers,
                              std::uint64_t seed, hh::sim::Cycles T)
{
    const auto batch = hh::workload::batchApplications();
    for (unsigned s = 0; s < servers; ++s) {
        ServerSim sim(cfg, batch[s].name, seed + s);
        sim.startRun();
        sim.advanceRun(T);
        EXPECT_FALSE(sim.finished()) << "server " << s;
        ASSERT_NE(sim.faultInjector(), nullptr);
        EXPECT_TRUE(sim.faultInjector()->task().running())
            << "server " << s;
        EXPECT_NE(sim.telemetryView(), nullptr);
        EXPECT_TRUE(sim.harvestPolicy().ticks());
        EXPECT_NE(sim.leaseManager(), nullptr);
    }
}

TEST(CheckpointDeterminism, ByteIdentityAcrossTimesAndWorkers)
{
    struct Input
    {
        const char *name;
        SystemConfig cfg;
        unsigned servers;
        std::vector<hh::sim::Cycles> times;
    };
    const Input inputs[] = {
        {"observability", fullObservabilityConfig(), 4,
         {hh::sim::msToCycles(1.0), hh::sim::msToCycles(3.0),
          hh::sim::msToCycles(8.0)}},
        {"periodic", allPeriodicServicesConfig(), 2,
         {hh::sim::msToCycles(2.0)}},
    };
    const std::uint64_t seed = 9;

    for (const Input &in : inputs) {
        const ClusterResults full =
            runCluster(in.cfg, in.servers, seed, 4);
        const std::string want = full.serialized();
        const std::string want_trace = full.traceJson();
        const std::string want_csv =
            hh::stats::metricsCsv(full.metricSeries);
        ASSERT_FALSE(want.empty());

        for (const hh::sim::Cycles T : in.times) {
            if (in.cfg.faults.enabled)
                expectAllPeriodicTicksPending(in.cfg, in.servers, seed,
                                              T);
            const std::string path = tmpPath(
                std::string("hh_ckpt_") + in.name + "_" +
                std::to_string(T) + ".hhcp");
            std::string err;
            ASSERT_TRUE(checkpointClusterAt(in.cfg, in.servers, seed,
                                            4, T, path, &err))
                << err;
            for (const unsigned workers : {1u, 4u, 8u}) {
                const auto resumed =
                    resumeCluster(path, in.cfg, workers, &err);
                ASSERT_TRUE(resumed.has_value())
                    << in.name << " T=" << T << " workers=" << workers
                    << ": " << err;
                EXPECT_EQ(resumed->serialized(), want)
                    << in.name << " T=" << T << " workers=" << workers;
                EXPECT_EQ(resumed->traceJson(), want_trace)
                    << in.name << " T=" << T << " workers=" << workers;
                EXPECT_EQ(hh::stats::metricsCsv(resumed->metricSeries),
                          want_csv)
                    << in.name << " T=" << T << " workers=" << workers;
            }
        }
    }
}

TEST(CheckpointDeterminism, FormatVersionMismatchIsRejected)
{
    const SystemConfig cfg = fullObservabilityConfig();
    hh::snap::CheckpointFile f;
    f.version = hh::snap::kFormatVersion + 1;
    f.configFingerprint = configFingerprint(cfg);
    f.servers = 1;
    f.seed = 1;
    f.batchApps = "BFS";
    f.blobs.emplace_back();
    const std::string path = tmpPath("hh_ckpt_future_version.hhcp");
    std::string err;
    ASSERT_TRUE(hh::snap::writeCheckpointFile(path, f, &err)) << err;

    const auto resumed = resumeCluster(path, cfg, 1, &err);
    EXPECT_FALSE(resumed.has_value());
    EXPECT_NE(err.find("format version"), std::string::npos) << err;
}

TEST(CheckpointDeterminism, ConfigMismatchIsRejected)
{
    SystemConfig cfg = fullObservabilityConfig();
    cfg.requestsPerVm = 10; // keep this one tiny
    const std::string path = tmpPath("hh_ckpt_config_mismatch.hhcp");
    std::string err;
    ASSERT_TRUE(checkpointClusterAt(cfg, 1, 3, 1,
                                    hh::sim::usToCycles(200), path,
                                    &err))
        << err;

    SystemConfig other = cfg;
    other.requestsPerVm = 11;
    const auto resumed = resumeCluster(path, other, 1, &err);
    EXPECT_FALSE(resumed.has_value());
    EXPECT_NE(err.find("SystemConfig"), std::string::npos) << err;

    // The unmodified config still resumes.
    const auto ok = resumeCluster(path, cfg, 1, &err);
    EXPECT_TRUE(ok.has_value()) << err;
}

TEST(CheckpointDeterminism, PeriodicCheckpointingMatchesPlainRun)
{
    SystemConfig cfg = makeSystem(SystemKind::HardHarvestBlock);
    cfg.requestsPerVm = 30;
    cfg.accessSampling = 32;
    const unsigned servers = 2;
    const std::uint64_t seed = 5;
    const std::string path = tmpPath("hh_ckpt_periodic.hhcp");

    const CheckpointedRun run = runClusterCheckpointed(
        cfg, servers, seed, 2, hh::sim::msToCycles(2.0), path);
    EXPECT_GE(run.checkpointsWritten, 1u);
    EXPECT_FALSE(run.preViolationDumped);

    const ClusterResults plain = runCluster(cfg, servers, seed, 2);
    EXPECT_EQ(run.results.serialized(), plain.serialized());

    // The file holds the final epoch; resuming it replays the (empty)
    // tail and must land on the same results.
    std::string err;
    const auto resumed = resumeCluster(path, cfg, 2, &err);
    ASSERT_TRUE(resumed.has_value()) << err;
    EXPECT_EQ(resumed->serialized(), plain.serialized());
}

TEST(CheckpointDeterminism, PreViolationDumpIsResumable)
{
    const SystemConfig cfg = violatingConfig();
    const std::string path = tmpPath("hh_ckpt_violation.hhcp");

    const CheckpointedRun run = runClusterCheckpointed(
        cfg, 1, 2, 1, hh::sim::usToCycles(20), path);
    ASSERT_GT(run.results.auditViolations, 0u);
    ASSERT_TRUE(run.preViolationDumped);
    ASSERT_FALSE(run.preViolationPath.empty());

    // Resuming the last violation-free epoch must walk straight back
    // into the same violation: same reports, same totals.
    std::string err;
    const auto resumed =
        resumeCluster(run.preViolationPath, cfg, 1, &err);
    ASSERT_TRUE(resumed.has_value()) << err;
    EXPECT_EQ(resumed->auditViolations,
              run.results.auditViolations);
    ASSERT_FALSE(resumed->auditReports.empty());
    ASSERT_FALSE(run.results.auditReports.empty());
    EXPECT_EQ(resumed->auditReports.front().second.time,
              run.results.auditReports.front().second.time);
    EXPECT_EQ(resumed->auditReports.front().second.message,
              run.results.auditReports.front().second.message);

    // The dumped state itself predates the violation: it loads with a
    // clean audit log.
    hh::snap::CheckpointFile f;
    ASSERT_TRUE(
        hh::snap::readCheckpointFile(run.preViolationPath, f, &err))
        << err;
    ASSERT_EQ(f.blobs.size(), 1u);
    ServerSim sim(cfg, hh::workload::batchApplications()[0].name, 2);
    auto ar = hh::snap::Archive::forLoad(f.blobs[0]);
    sim.loadState(ar);
    ASSERT_TRUE(ar.ok()) << ar.error();
    ASSERT_NE(sim.auditor(), nullptr);
    EXPECT_EQ(sim.auditor()->violationCount(), 0u);
}
