/**
 * @file
 * Cache-capacity leasing tests (src/lease/): CacheLeaseManager
 * lifecycle unit behavior (grant / recall / expiry / flush-on-return
 * accounting, way-cycle accrual, degenerate-grant panics, snapshot
 * round-trip), the cluster-level conformance contract (byte-identical
 * results and telemetry JSONL across worker counts and a mid-lease
 * checkpoint save/load/resume), resume rejection on mismatched
 * cacheLend* knobs, spec-level validation of the cacheLend keys, the
 * auditor's "lease" invariant staying clean on a leasing run, and the
 * lease-overstay fault action as its positive control.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "cache/repl_lru.h"
#include "cache/set_assoc.h"
#include "cluster/checkpoint.h"
#include "cluster/experiment.h"
#include "cluster/telemetry_hub.h"
#include "exp/spec.h"
#include "lease/cache_lease.h"
#include "snapshot/archive.h"

using namespace hh::cluster;
using hh::cache::Geometry;
using hh::cache::LruPolicy;
using hh::cache::SetAssocArray;
using hh::cache::WayMask;
using hh::lease::CacheLeaseManager;

namespace {

SetAssocArray
makeL3(std::uint32_t sets = 8, std::uint32_t ways = 16)
{
    return SetAssocArray(Geometry{sets, ways, 1},
                         std::make_unique<LruPolicy>());
}

/**
 * Reduced-scale leasing cluster config. The shortened period and
 * term force several grant -> expiry -> re-grant rounds through the
 * short run, so recalls/expiries and their flushes are exercised,
 * not just the initial grants.
 */
SystemConfig
leaseConfig(const std::string &policy)
{
    SystemConfig cfg = makeSystem(SystemKind::HardHarvestBlock);
    cfg.requestsPerVm = 40;
    cfg.accessSampling = 32;
    cfg.policy = policy;
    cfg.telemetryEnabled = true;
    cfg.cacheLendEnabled = true;
    cfg.cacheLendPeriod = hh::sim::msToCycles(0.25);
    cfg.cacheLendTerm = hh::sim::msToCycles(1.0);
    return cfg;
}

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

} // namespace

// ------------------------------------------------- manager lifecycle

TEST(CacheLeaseManager_, GrantFlushesAndMarksTheHarvestRegion)
{
    auto l3 = makeL3();
    // Pre-fill the low ways so the handoff flush has victims.
    for (hh::cache::Addr k = 0; k < 8 * 16; ++k)
        l3.access(k, true);
    ASSERT_EQ(l3.validCount(), 8u * 16u);

    CacheLeaseManager mgr(2, /*term=*/1000);
    const std::uint64_t flushed =
        mgr.grant(0, l3, /*now=*/100, 0b1111, /*l2Bonus=*/1);
    EXPECT_EQ(flushed, 8u * 4u); // 4 low ways of 8 sets
    EXPECT_EQ(l3.harvestWays(), 0b1111u);
    EXPECT_EQ(l3.validCountInWays(0b1111), 0u);
    EXPECT_TRUE(mgr.active(0));
    EXPECT_FALSE(mgr.active(1));
    EXPECT_EQ(mgr.lease(0).l2Bonus, 1u);
    EXPECT_EQ(mgr.lease(0).grantedAt, 100u);
    EXPECT_EQ(mgr.lease(0).expiresAt, 1100u);
    EXPECT_EQ(mgr.lease(0).everLeased, 0b1111u);
    EXPECT_EQ(mgr.grants(), 1u);
    EXPECT_EQ(mgr.flushedLines(), flushed);
    EXPECT_EQ(mgr.lentL3Ways(), 4u);
    EXPECT_EQ(mgr.activeLenders(), std::vector<unsigned>{0});
}

TEST(CacheLeaseManager_, ReleaseFlushesBorrowerLinesOnReturn)
{
    auto l3 = makeL3();
    CacheLeaseManager mgr(1, 1000);
    mgr.grant(0, l3, 0, 0b0011, 0);
    // The borrower fills the leased ways; the owner fills around.
    for (hh::cache::Addr k = 0; k < 16; ++k)
        l3.access(k, true, 0b0011);
    ASSERT_EQ(l3.validCountInWays(0b0011), 16u);

    const std::uint64_t flushed =
        mgr.release(0, l3, 500, /*expired=*/false);
    EXPECT_EQ(flushed, 16u); // flush-on-return: every borrower line
    EXPECT_EQ(l3.validCountInWays(0b0011), 0u);
    EXPECT_EQ(l3.harvestWays(), 0u);
    EXPECT_FALSE(mgr.active(0));
    EXPECT_EQ(mgr.recalls(), 1u);
    EXPECT_EQ(mgr.expiries(), 0u);
    // The returned ways stay marked for the auditor's overstay scan.
    EXPECT_EQ(mgr.lease(0).everLeased, 0b0011u);
    EXPECT_EQ(mgr.lease(0).l3Ways, 0u);

    // A later expiry-release counts separately.
    mgr.grant(0, l3, 600, 0b0011, 0);
    mgr.release(0, l3, 2000, /*expired=*/true);
    EXPECT_EQ(mgr.recalls(), 1u);
    EXPECT_EQ(mgr.expiries(), 1u);
}

TEST(CacheLeaseManager_, LazyExpiryAndWayCycleAccrual)
{
    auto l3 = makeL3();
    CacheLeaseManager mgr(1, 1000);
    mgr.grant(0, l3, 100, 0b1111, 0);
    EXPECT_FALSE(mgr.expired(0, 1099));
    EXPECT_TRUE(mgr.expired(0, 1100)); // now >= expiresAt
    // 4 ways lent since t=100: the integral tracks open leases too.
    EXPECT_EQ(mgr.wayCycles(600), 4u * 500u);
    mgr.release(0, l3, 1100, true);
    EXPECT_EQ(mgr.wayCycles(1100), 4u * 1000u);
    // After the release the integral is frozen.
    EXPECT_EQ(mgr.wayCycles(5000), 4u * 1000u);
    EXPECT_FALSE(mgr.expired(0, 5000)); // inactive is never expired
}

TEST(CacheLeaseManager_, DegenerateGrantsPanic)
{
    auto l3 = makeL3();
    CacheLeaseManager mgr(1, 1000);
    // No ways and all ways are both degenerate leases.
    EXPECT_THROW(mgr.grant(0, l3, 0, 0, 0), std::logic_error);
    EXPECT_THROW(mgr.grant(0, l3, 0, l3.allWays(), 0),
                 std::logic_error);
    // Out-of-range bits are clamped first: only ways beyond the
    // geometry is degenerate-empty too.
    EXPECT_THROW(mgr.grant(0, l3, 0, ~WayMask{0} << 16, 0),
                 std::logic_error);
    // Double grant and bad vm ids panic; release without a lease too.
    mgr.grant(0, l3, 0, 0b0011, 0);
    EXPECT_THROW(mgr.grant(0, l3, 10, 0b1100, 0), std::logic_error);
    EXPECT_THROW(mgr.grant(1, l3, 0, 0b0011, 0), std::logic_error);
    mgr.release(0, l3, 20, false);
    EXPECT_THROW(mgr.release(0, l3, 30, false), std::logic_error);
}

TEST(CacheLeaseManager_, StateRoundTripsThroughSnapshot)
{
    auto l3 = makeL3();
    CacheLeaseManager mgr(2, 1000);
    mgr.grant(0, l3, 100, 0b0011, 2);
    mgr.grant(1, l3, 150, 0b0100, 0);
    mgr.release(1, l3, 300, true);

    auto save = hh::snap::Archive::forSave();
    mgr.serialize(save);
    const auto blob = save.take();

    CacheLeaseManager loaded(2, 1000);
    auto load = hh::snap::Archive::forLoad(blob);
    loaded.serialize(load);
    ASSERT_TRUE(load.ok()) << load.error();
    EXPECT_TRUE(loaded.active(0));
    EXPECT_FALSE(loaded.active(1));
    EXPECT_EQ(loaded.lease(0).l3Ways, 0b0011u);
    EXPECT_EQ(loaded.lease(0).l2Bonus, 2u);
    EXPECT_EQ(loaded.lease(0).expiresAt, 1100u);
    EXPECT_EQ(loaded.lease(1).everLeased, 0b0100u);
    EXPECT_EQ(loaded.grants(), 2u);
    EXPECT_EQ(loaded.expiries(), 1u);
    EXPECT_EQ(loaded.flushedLines(), mgr.flushedLines());
    EXPECT_EQ(loaded.wayCycles(300), mgr.wayCycles(300));
}

// ----------------------------------------------- conformance contract

class LeaseConformance : public ::testing::TestWithParam<const char *>
{
};

TEST_P(LeaseConformance, WorkerCountsAndMidLeaseResumeAreByteIdentical)
{
    const SystemConfig cfg = leaseConfig(GetParam());
    const unsigned servers = 2;
    const std::uint64_t seed = 5;

    const ClusterResults ref = runCluster(cfg, servers, seed, 1);
    // The run actually leased: the contract would be vacuous without
    // grants, and the shortened term forces full lifecycles through.
    EXPECT_GT(ref.leaseGrants, 0u);
    EXPECT_GT(ref.leaseRecalls + ref.leaseExpiries, 0u);
    EXPECT_GT(ref.leaseWayCycles, 0u);
    const std::string want = ref.serialized();
    const std::string want_jsonl =
        TelemetryHub(cfg, ref.serverTelemetry).jsonl();
    for (const unsigned workers : {4u, 8u}) {
        ClusterResults res = runCluster(cfg, servers, seed, workers);
        EXPECT_EQ(res.serialized(), want) << "workers=" << workers;
        EXPECT_EQ(TelemetryHub(cfg, std::move(res.serverTelemetry)).jsonl(),
                  want_jsonl)
            << "workers=" << workers;
    }

    // Save mid-run — past several grant/expiry rounds, with leases in
    // flight — load, resume: the lease slots ride snapshot section
    // 0x18 and the partitions' harvest masks ride their VM sections,
    // so the resumed run must reproduce the uninterrupted one
    // byte-for-byte, telemetry included.
    const std::string path =
        tmpPath(std::string("hh_lease_") + GetParam() + ".hhcp");
    std::string err;
    ASSERT_TRUE(checkpointClusterAt(cfg, servers, seed, 2,
                                    hh::sim::msToCycles(2.0), path,
                                    &err))
        << err;
    auto resumed = resumeCluster(path, cfg, 4, &err);
    ASSERT_TRUE(resumed.has_value()) << err;
    EXPECT_EQ(resumed->serialized(), want);
    EXPECT_EQ(
        TelemetryHub(cfg, std::move(resumed->serverTelemetry)).jsonl(),
        want_jsonl);
}

INSTANTIATE_TEST_SUITE_P(LeasePolicies, LeaseConformance,
                         ::testing::Values("static", "hysteresis"));

TEST(LeaseCheckpoint, MismatchedLendKnobsRejectCheckpoint)
{
    // The config fingerprint covers every cacheLend* knob, so a
    // resume under different leasing parameters is refused up front
    // instead of desynchronizing section 0x18 mid-load.
    const SystemConfig cfg = leaseConfig("static");
    const std::string path = tmpPath("hh_lease_mismatch.hhcp");
    std::string err;
    ASSERT_TRUE(checkpointClusterAt(cfg, 2, 5, 2,
                                    hh::sim::msToCycles(2.0), path,
                                    &err))
        << err;
    SystemConfig off = cfg;
    off.cacheLendEnabled = false;
    EXPECT_FALSE(resumeCluster(path, off, 2, &err).has_value());
    EXPECT_NE(err.find("different SystemConfig"), std::string::npos)
        << err;
    SystemConfig narrower = cfg;
    narrower.cacheLendL3Ways = 2;
    EXPECT_FALSE(resumeCluster(path, narrower, 2, &err).has_value());
    EXPECT_NE(err.find("different SystemConfig"), std::string::npos)
        << err;
    SystemConfig shorter = cfg;
    shorter.cacheLendTerm = hh::sim::msToCycles(0.5);
    EXPECT_FALSE(resumeCluster(path, shorter, 2, &err).has_value());
    EXPECT_NE(err.find("different SystemConfig"), std::string::npos)
        << err;
}

// --------------------------------------------------- spec validation

TEST(LeaseSpec, CacheLendKeysParseIntoTheConfig)
{
    hh::exp::ExperimentSpec spec;
    std::string err;
    ASSERT_TRUE(hh::exp::parseSpec("name = l\n"
                                   "cacheLendEnabled = true\n"
                                   "cacheLendL3Ways = 6\n"
                                   "cacheLendL2WayFraction = 0.25\n"
                                   "cacheLendPeriodMs = 0.5\n"
                                   "cacheLendTermMs = 2\n",
                                   &spec, &err))
        << err;
    const auto pts = spec.points();
    ASSERT_FALSE(pts.empty());
    const SystemConfig &cfg = pts[0].cfg;
    EXPECT_TRUE(cfg.cacheLendEnabled);
    EXPECT_EQ(cfg.cacheLendL3Ways, 6u);
    EXPECT_DOUBLE_EQ(cfg.cacheLendL2WayFraction, 0.25);
    EXPECT_EQ(cfg.cacheLendPeriod, hh::sim::msToCycles(0.5));
    EXPECT_EQ(cfg.cacheLendTerm, hh::sim::msToCycles(2.0));

    // The lease-geometry sweep EXPERIMENTS.md shows: 1 app x 3 x 3.
    ASSERT_TRUE(hh::exp::parseSpec("apps = BFS\n"
                                   "cacheLendEnabled = true\n"
                                   "sweep.cacheLendL3Ways = 2 4 6\n"
                                   "sweep.cacheLendTermMs = 2 4 8\n",
                                   &spec, &err))
        << err;
    EXPECT_EQ(spec.points().size(), 9u);
}

TEST(LeaseSpec, DegenerateLendValuesFailWithLineNumbers)
{
    hh::exp::ExperimentSpec spec;
    std::string err;
    // The owner must keep at least one way of its 16-way partition.
    EXPECT_FALSE(hh::exp::parseSpec("name = l\ncacheLendL3Ways = 16\n",
                                    &spec, &err));
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
    EXPECT_NE(err.find("1..15"), std::string::npos) << err;
    EXPECT_FALSE(hh::exp::parseSpec("cacheLendL3Ways = 0\n", &spec,
                                    &err));

    // An L2 fraction that rounds to a 0-way bonus is a silent no-op:
    // rejected at parse time like harvestWayFraction degeneracies.
    EXPECT_FALSE(hh::exp::parseSpec(
        "cacheLendL2WayFraction = 0.01\n", &spec, &err));
    EXPECT_NE(err.find("0-way"), std::string::npos) << err;
    // ... while a fraction covering the whole L2 leaves the owner
    // nothing private.
    EXPECT_FALSE(hh::exp::parseSpec(
        "cacheLendL2WayFraction = 0.95\n", &spec, &err));
    EXPECT_FALSE(hh::exp::parseSpec("cacheLendPeriodMs = 0\n", &spec,
                                    &err));
    EXPECT_FALSE(hh::exp::parseSpec("cacheLendTermMs = -1\n", &spec,
                                    &err));
    // A period that rounds to 0 cycles would re-arm the lease tick at
    // the same instant forever, and nan passes a `<= 0` check.
    for (const char *bad : {"cacheLendPeriodMs = 1e-9\n",
                            "cacheLendPeriodMs = nan\n",
                            "cacheLendTermMs = nan\n"}) {
        EXPECT_FALSE(hh::exp::parseSpec(std::string("name = l\n") + bad,
                                        &spec, &err))
            << bad;
        EXPECT_NE(err.find("line 2"), std::string::npos) << err;
    }
    // Explicit 0 stays the documented way to disable the L2 bonus.
    EXPECT_TRUE(hh::exp::parseSpec("cacheLendL2WayFraction = 0\n",
                                   &spec, &err))
        << err;
}

// -------------------------------------------- auditor + fault action

TEST(LeaseAudit, LeaseInvariantHoldsOnALeasingRun)
{
    SystemConfig cfg = leaseConfig("static");
    cfg.auditEnabled = true;
    const ClusterResults res = runCluster(cfg, 2, 5, 2);
    EXPECT_GT(res.leaseGrants, 0u);
    EXPECT_GT(res.auditsRun, 0u);
    EXPECT_EQ(res.auditViolations, 0u) << [&] {
        std::string all;
        for (const auto &[s, v] : res.auditReports)
            all += v.component + ": " + v.message + "\n";
        return all;
    }();
}

TEST(LeaseAudit, OverstayFaultActionIsCaughtByTheLeaseInvariant)
{
    // Positive control: the lease-overstay action plants a batch line
    // in a way whose lease already ended — exactly the corruption
    // flush-on-return exists to prevent — and the auditor's "lease"
    // invariant must flag it.
    SystemConfig cfg = leaseConfig("static");
    cfg.auditEnabled = true;
    cfg.auditPeriod = 256;
    cfg.auditStopOnViolation = true;
    cfg.faults.enabled = true;
    cfg.faults.meanPeriod = hh::sim::usToCycles(20);
    cfg.faults.startAt = hh::sim::usToCycles(10);
    cfg.faults.actionsPerTick = 4;
    const auto res = runServer(cfg, "BFS", 2);
    ASSERT_GT(res.faultsInjected, 0u);
    ASSERT_GT(res.auditViolations, 0u);
    ASSERT_FALSE(res.auditReports.empty());
    bool lease_flagged = false;
    for (const auto &v : res.auditReports) {
        if (v.component == "lease") {
            lease_flagged = true;
            EXPECT_NE(v.message.find("after its lease ended"),
                      std::string::npos)
                << v.message;
        }
    }
    EXPECT_TRUE(lease_flagged);
}

TEST(LeaseAudit, OverstayReportTextIsPinned)
{
    // The exact report of the positive control above: which lender,
    // which way, and when, as the "lease" invariant words it. The
    // run stops at the sweep that finds it, and the final sweep of a
    // stopped run is skipped, so it is stored and counted once.
    SystemConfig cfg = leaseConfig("static");
    cfg.auditEnabled = true;
    cfg.auditPeriod = 256;
    cfg.auditStopOnViolation = true;
    cfg.faults.enabled = true;
    cfg.faults.meanPeriod = hh::sim::usToCycles(20);
    cfg.faults.startAt = hh::sim::usToCycles(10);
    cfg.faults.actionsPerTick = 4;
    const auto res = runServer(cfg, "BFS", 2);
    ASSERT_EQ(res.auditViolations, 1u);
    ASSERT_EQ(res.auditReports.size(), 1u);
    for (const auto &v : res.auditReports) {
        EXPECT_EQ(v.component, "lease");
        EXPECT_EQ(v.time, 4969092u);
        EXPECT_EQ(v.message,
                  "vm 0 L3 way 0 holds a batch line after its lease "
                  "ended");
    }
}

