/**
 * @file
 * Harvest-policy tests: the selectors, the hysteresis bands, the
 * pinned section-0x16 bytes, the conformance contract (byte-identical
 * results and telemetry JSONL across worker counts and checkpoint
 * save/load/resume for every policy), spec-level validation of the
 * policy keys and degenerate harvest-way fractions, and the
 * ObservationView epoch-boundary edges the policy tick relies on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/checkpoint.h"
#include "cluster/experiment.h"
#include "cluster/server.h"
#include "cluster/telemetry_hub.h"
#include "exp/spec.h"
#include "snapshot/archive.h"
#include "stats/observation_view.h"

using namespace hh::cluster;
using hh::stats::ObservationRow;
using hh::stats::ObservationView;
using hh::stats::ServerCounters;
using hh::stats::VmFeatures;

namespace {

/** Reduced-scale cluster config running the given harvest policy. */
SystemConfig
policyConfig(const std::string &policy)
{
    SystemConfig cfg = makeSystem(SystemKind::HardHarvestBlock);
    cfg.requestsPerVm = 40;
    cfg.accessSampling = 32;
    cfg.policy = policy;
    cfg.telemetryEnabled = true;
    return cfg;
}

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

/** A config for direct policy-object unit tests. */
SystemConfig
unitConfig(const std::string &kind, unsigned primaryVms)
{
    SystemConfig cfg;
    cfg.policy = kind;
    cfg.primaryVms = primaryVms;
    return cfg;
}

/** One observation row with the given per-VM feature values. */
ObservationRow
rowWith(const std::vector<VmFeatures> &vms, std::uint64_t epoch = 1)
{
    ObservationRow row;
    row.epoch = epoch;
    row.t = epoch * 1000;
    row.vms = vms;
    return row;
}

VmFeatures
vmUtil(std::uint32_t vm, double util)
{
    VmFeatures f;
    f.vm = vm;
    f.coreUtil = util;
    return f;
}

} // namespace

// --------------------------------------------------------- selectors

TEST(PolicySelector, KnownNamesConstructAPolicy)
{
    for (const std::string &name : harvestPolicyNames()) {
        EXPECT_TRUE(knownHarvestPolicy(name)) << name;
        const HarvestPolicy p(unitConfig(name, 8));
        EXPECT_EQ(p.ticks(), name == "hysteresis") << name;
    }
    EXPECT_FALSE(knownHarvestPolicy("nonsense"));

    // The server refuses an unknown selector up front.
    SystemConfig cfg = makeSystem(SystemKind::HardHarvestBlock);
    cfg.policy = "nonsense";
    EXPECT_THROW(ServerSim(cfg, "BFS", 1), std::runtime_error);
    std::string what;
    try {
        ServerSim sim(cfg, "BFS", 1);
    } catch (const std::runtime_error &e) {
        what = e.what();
    }
    EXPECT_EQ(what, "fatal: ServerSim: unknown harvest policy "
                    "\"nonsense\" (expected static or hysteresis)");
}

TEST(PolicySelector, StaticDecisionFreezesTheConfiguredKnobs)
{
    SystemConfig cfg = unitConfig("static", 2);
    cfg.harvestOnBlock = true;
    cfg.adaptiveHarvest = true;
    cfg.hwEmergencyBuffer = 2;
    cfg.harvestWayFraction = 0.4;
    const HarvestPolicy p(cfg);
    EXPECT_FALSE(p.ticks());
    const VmDecision &d = p.decision(0);
    EXPECT_TRUE(d.lendAllowed);
    EXPECT_EQ(d.blockMode, BlockHarvestMode::AdaptiveEwma);
    EXPECT_EQ(d.emergencyBuffer, 2u);
    EXPECT_DOUBLE_EQ(d.harvestWayFraction, 0.4);
    // Out-of-range ids (ghost VMs) fall back to the static decision.
    EXPECT_EQ(p.decision(1000).blockMode,
              BlockHarvestMode::AdaptiveEwma);

    cfg.harvestOnBlock = false;
    const HarvestPolicy never(cfg);
    EXPECT_EQ(never.decision(0).blockMode, BlockHarvestMode::Never);
}

// -------------------------------------------------------- hysteresis

TEST(HysteresisPolicyTest, ThresholdsAndStickyBand)
{
    SystemConfig cfg = unitConfig("hysteresis", 2);
    cfg.policyLendUtil = 0.35;
    cfg.policyHoldUtil = 0.75;
    cfg.harvestWayFraction = 0.5;
    cfg.policyEwmaAlpha = 0.5;
    HarvestPolicy p(cfg);

    // First row seeds the EWMA directly: idle VM 0, busy VM 1.
    p.observe(rowWith({vmUtil(0, 0.1), vmUtil(1, 0.95)}));
    EXPECT_DOUBLE_EQ(p.ewmaUtil(0), 0.1);
    EXPECT_TRUE(p.decision(0).lendAllowed);
    EXPECT_EQ(p.decision(0).emergencyBuffer, 0u);
    EXPECT_DOUBLE_EQ(p.decision(0).harvestWayFraction, 0.75);
    EXPECT_GE(p.decision(1).emergencyBuffer, 1u);
    EXPECT_DOUBLE_EQ(p.decision(1).harvestWayFraction, 0.25);

    // Mid-band utilization: both decisions stick (hysteresis).
    p.observe(rowWith({vmUtil(0, 0.5), vmUtil(1, 0.5)}, 2));
    EXPECT_EQ(p.decision(0).emergencyBuffer, 0u);
    EXPECT_DOUBLE_EQ(p.decision(0).harvestWayFraction, 0.75);
    EXPECT_GE(p.decision(1).emergencyBuffer, 1u);
    EXPECT_DOUBLE_EQ(p.decision(1).harvestWayFraction, 0.25);

    // Sustained reversal flips both once the EWMA crosses.
    for (std::uint64_t e = 3; e < 10; ++e)
        p.observe(rowWith({vmUtil(0, 1.0), vmUtil(1, 0.0)}, e));
    EXPECT_GE(p.decision(0).emergencyBuffer, 1u);
    EXPECT_EQ(p.decision(1).emergencyBuffer, 0u);
}

TEST(HysteresisPolicyTest, DefaultHoldUtilDisarmsTheGuard)
{
    // Bound-core utilization saturates near 1 under the paper's load,
    // so the default holdUtil=1.0 never arms the guard (the EWMA is
    // capped at 1.0 and the comparison is strict).
    const SystemConfig cfg = unitConfig("hysteresis", 1);
    HarvestPolicy p(cfg);
    for (std::uint64_t e = 1; e < 20; ++e)
        p.observe(rowWith({vmUtil(0, 1.0)}, e));
    EXPECT_EQ(p.decision(0).emergencyBuffer,
              cfg.hwEmergencyBuffer);
}

// ------------------------------------------------- section 0x16 bytes

namespace {

/** 2 Primary VMs + the Harvest VM, cache leasing on, holdUtil 0.5. */
SystemConfig
pinnedConfig(const std::string &kind)
{
    SystemConfig cfg = unitConfig(kind, 2);
    cfg.cacheLendEnabled = true;
    cfg.policyHoldUtil = 0.5;
    return cfg;
}

std::string
serializedHex(HarvestPolicy &p)
{
    auto ar = hh::snap::Archive::forSave();
    p.serialize(ar);
    std::string hex;
    for (const std::uint8_t b : ar.take()) {
        static const char kDigits[] = "0123456789abcdef";
        hex += kDigits[b >> 4];
        hex += kDigits[b & 0xf];
    }
    return hex;
}

} // namespace

TEST(PolicyBytes, SerializedStateIsPinned)
{
    // The policy's serialize() is 'HHCP' section 0x16's payload: the
    // decision vector, then (hysteresis only) the EWMAs and seed
    // flags. These bytes must not change across refactors.
    HarvestPolicy stat(pinnedConfig("static"));
    EXPECT_EQ(serializedHex(stat),
              "030000000000000001010000000000000000000000000000000000e0"
              "3f01000000000000d03f040000000101000000000000000000000000"
              "0000000000e03f01000000000000d03f040000000101000000000000"
              "0000000000000000000000e03f01000000000000d03f04000000");

    // VM 0 starts idle and its EWMA climbs past lendUtil (sticky) and
    // then past holdUtil; VM 1 starts busy and decays into the band.
    // The Harvest VM's features are ignored.
    HarvestPolicy hyst(pinnedConfig("hysteresis"));
    hyst.observe(rowWith({vmUtil(0, 0.1), vmUtil(1, 0.9),
                          vmUtil(2, 0.5)}, 1));
    hyst.observe(rowWith({vmUtil(0, 1.0), vmUtil(1, 0.0)}, 2));
    hyst.observe(rowWith({vmUtil(0, 1.0), vmUtil(1, 0.0)}, 3));
    EXPECT_GE(hyst.decision(0).emergencyBuffer, 1u);
    EXPECT_FALSE(hyst.decision(0).cacheLendAllowed);
    EXPECT_EQ(serializedHex(hyst),
              "030000000000000001010000000000000001000000000000000000d0"
              "3f00000000000000d03f040000000101000000000000000100000000"
              "0000000000d03f00000000000000d03f040000000101000000000000"
              "0000000000000000000000e03f01000000000000d03f040000000300"
              "00000000000016d9cef753e3e13fd24d62105839dc3f000000000000"
              "00000300000000000000010100");
}

// ----------------------------------------------- conformance contract

class PolicyConformance
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(PolicyConformance, WorkerCountsAndResumeAreByteIdentical)
{
    const SystemConfig cfg = policyConfig(GetParam());
    const unsigned servers = 2;
    const std::uint64_t seed = 5;

    const ClusterResults ref = runCluster(cfg, servers, seed, 1);
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

    // Save mid-run (past several policy epochs), load, resume: the
    // policy state rides snapshot section 0x16, so the resumed run
    // must reproduce the uninterrupted one byte-for-byte.
    const std::string path =
        tmpPath(std::string("hh_policy_") + GetParam() + ".hhcp");
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

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyConformance,
                         ::testing::Values("static", "hysteresis"));

TEST(PolicyCheckpoint, MismatchedPolicyRejectsCheckpoint)
{
    // The config fingerprint covers the policy selector and its
    // parameters, so resuming under a different policy is refused up
    // front instead of desynchronizing section 0x16 mid-load.
    const SystemConfig cfg = policyConfig("hysteresis");
    const std::string path = tmpPath("hh_policy_mismatch.hhcp");
    std::string err;
    ASSERT_TRUE(checkpointClusterAt(cfg, 2, 5, 2,
                                    hh::sim::msToCycles(2.0), path,
                                    &err))
        << err;
    SystemConfig other = cfg;
    other.policy = "static";
    EXPECT_FALSE(resumeCluster(path, other, 2, &err).has_value());
    EXPECT_NE(err.find("different SystemConfig"), std::string::npos)
        << err;
    SystemConfig tuned = cfg;
    tuned.policyLendUtil = 0.5;
    EXPECT_FALSE(resumeCluster(path, tuned, 2, &err).has_value());
    EXPECT_NE(err.find("different SystemConfig"), std::string::npos)
        << err;
}

TEST(PolicyCheckpoint, NoPolicyPresenceByteNamesTheRemovedSelector)
{
    // Section 0x16 still writes its presence byte, now always true. A
    // false byte is what the removed no-policy selector wrote; loading
    // it must fail with a message naming that selector.
    SystemConfig cfg = policyConfig("static");
    cfg.telemetryEnabled = false;
    ServerSim a(cfg, "BFS", 3);
    a.startRun();
    a.advanceRun(hh::sim::msToCycles(0.5));
    auto save = hh::snap::Archive::forSave();
    a.saveState(save);
    ASSERT_TRUE(save.ok());
    std::vector<std::uint8_t> bytes = save.take();

    // Section id 0x16, presence byte 1, then the decision vector's
    // length (one entry per VM): unique in the stream.
    const std::uint32_t id = 0x16;
    const std::uint64_t vms = cfg.primaryVms + 1;
    std::vector<std::uint8_t> marker(13);
    std::memcpy(marker.data(), &id, 4);
    marker[4] = 1;
    std::memcpy(marker.data() + 5, &vms, 8);
    const auto at = std::search(bytes.begin(), bytes.end(),
                                marker.begin(), marker.end());
    ASSERT_NE(at, bytes.end());
    ASSERT_EQ(std::search(at + 1, bytes.end(), marker.begin(),
                          marker.end()),
              bytes.end());
    at[4] = 0;

    ServerSim b(cfg, "BFS", 3);
    auto load = hh::snap::Archive::forLoad(bytes);
    b.loadState(load);
    EXPECT_FALSE(load.ok());
    EXPECT_NE(load.error().find("\"legacy\""), std::string::npos)
        << load.error();
}

// ------------------------------------------------- spec validation

TEST(PolicySpec, PolicyKeysParseIntoTheConfig)
{
    hh::exp::ExperimentSpec spec;
    std::string err;
    ASSERT_TRUE(hh::exp::parseSpec("name = p\n"
                                   "policy = hysteresis\n"
                                   "policyPeriodMs = 0.5\n"
                                   "policyLendUtil = 0.2\n"
                                   "policyHoldUtil = 0.8\n"
                                   "policyEwmaAlpha = 0.4\n",
                                   &spec, &err))
        << err;
    const auto pts = spec.points();
    ASSERT_FALSE(pts.empty());
    const SystemConfig &cfg = pts[0].cfg;
    EXPECT_EQ(cfg.policy, "hysteresis");
    EXPECT_EQ(cfg.policyPeriod, hh::sim::msToCycles(0.5));
    EXPECT_DOUBLE_EQ(cfg.policyLendUtil, 0.2);
    EXPECT_DOUBLE_EQ(cfg.policyHoldUtil, 0.8);
    EXPECT_DOUBLE_EQ(cfg.policyEwmaAlpha, 0.4);

    // The threshold sweep EXPERIMENTS.md shows: 1 app x 3 x 2.
    ASSERT_TRUE(hh::exp::parseSpec("apps = BFS\n"
                                   "policy = hysteresis\n"
                                   "sweep.policyLendUtil = 0.25 0.35 0.50\n"
                                   "sweep.policyHoldUtil = 0.90 1.00\n",
                                   &spec, &err))
        << err;
    EXPECT_EQ(spec.points().size(), 6u);
}

TEST(PolicySpec, BadPolicyValuesFailWithLineNumbers)
{
    hh::exp::ExperimentSpec spec;
    std::string err;
    EXPECT_FALSE(
        hh::exp::parseSpec("name = p\npolicy = nonsense\n", &spec,
                           &err));
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
    EXPECT_NE(err.find("unknown harvest policy"), std::string::npos)
        << err;
    // The retired no-policy selector is an unknown name like any other.
    EXPECT_FALSE(hh::exp::parseSpec("name = p\n\npolicy = legacy\n",
                                    &spec, &err));
    EXPECT_NE(err.find("line 3"), std::string::npos) << err;
    EXPECT_NE(err.find("expected static or hysteresis"),
              std::string::npos)
        << err;
    // So are the retired k-means and bandit selectors.
    for (const char *text : {"name = p\npolicy = critical\n",
                             "name = p\npolicy = bandit\n"}) {
        EXPECT_FALSE(hh::exp::parseSpec(text, &spec, &err));
        EXPECT_NE(err.find("line 2"), std::string::npos) << err;
        EXPECT_NE(err.find("expected static or hysteresis"),
                  std::string::npos)
            << err;
    }

    EXPECT_FALSE(hh::exp::parseSpec("policyHoldUtil = -0.1\n", &spec,
                                    &err));
    EXPECT_NE(err.find("[0, 1]"), std::string::npos) << err;
    // NaN compares false against any bound; it must still fail, or a
    // NaN alpha or threshold freezes every hysteresis decision.
    for (const char *text : {"name = p\npolicyEwmaAlpha = nan\n",
                             "name = p\npolicyLendUtil = nan\n",
                             "name = p\npolicyHoldUtil = nan\n",
                             "name = p\nwaysFraction = nan\n",
                             "name = p\nloadScale = -1\n",
                             "name = p\nloadScale = nan\n",
                             "name = p\nwarmupFraction = nan\n",
                             "name = p\ncandidateFraction = nan\n",
                             "name = p\nllcMbPerCore = nan\n"}) {
        EXPECT_FALSE(hh::exp::parseSpec(text, &spec, &err)) << text;
        EXPECT_NE(err.find("line 2"), std::string::npos) << err;
    }
    EXPECT_FALSE(hh::exp::parseSpec("policyPeriodMs = 0\n", &spec,
                                    &err));
    // Positive but under one cycle: a 0-cycle tick would spin forever.
    EXPECT_FALSE(hh::exp::parseSpec("name = p\npolicyPeriodMs = 1e-7\n",
                                    &spec, &err));
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
    EXPECT_NE(err.find("0 cycles"), std::string::npos) << err;
}

TEST(PolicySpec, DegenerateHarvestFractionsAreRejected)
{
    hh::exp::ExperimentSpec spec;
    std::string err;
    // 0.05 rounds to zero harvest ways in every masked structure.
    EXPECT_FALSE(hh::exp::parseSpec(
        "name = p\nharvestWayFraction = 0.05\n", &spec, &err));
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
    EXPECT_NE(err.find("0-way"), std::string::npos) << err;

    // 0.99 rounds to all 12 L1D ways: no private region left.
    EXPECT_FALSE(hh::exp::parseSpec("harvestWayFraction = 0.99\n",
                                    &spec, &err));
    EXPECT_NE(err.find("all-way"), std::string::npos) << err;

    // 0.75 is fine at full way scaling but degenerates in the 2-way
    // scaled L1TLB once waysFraction halves the structures.
    EXPECT_TRUE(hh::exp::parseSpec("harvestWayFraction = 0.75\n",
                                   &spec, &err))
        << err;
    EXPECT_FALSE(hh::exp::parseSpec(
        "harvestWayFraction = 0.75\nwaysFraction = 0.5\n", &spec,
        &err));
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
    EXPECT_NE(err.find("at this waysFraction"), std::string::npos)
        << err;

    // Sweep axes are validated point by point too.
    EXPECT_FALSE(hh::exp::parseSpec(
        "sweep.harvestWayFraction = 0.25 0.05\n", &spec, &err));
}

// ------------------------------------ ObservationView epoch edges

TEST(ObservationViewEdges, RecordAtTimeZeroBecomesTheBaseline)
{
    // A first record at t=0 (policy/telemetry start colliding with a
    // zero-length first epoch, e.g. stop-at-start or resume taken
    // exactly at a tick) must not emit a bogus zero-length row; it
    // becomes the explicit baseline instead.
    ObservationView view;
    ServerCounters cum;
    cum.t = 0;
    cum.vms.resize(1);
    cum.vms[0].busyCycles = 300;
    cum.vms[0].coresBound = 1;
    cum.batchLoaned = 4;
    view.record(cum);
    EXPECT_TRUE(view.rows().empty());
    EXPECT_EQ(view.epochs(), 0u);

    // The next tick diffs against that baseline, not against zero.
    cum.t = 1000;
    cum.vms[0].busyCycles = 800;
    cum.batchLoaned = 7;
    view.record(cum);
    ASSERT_EQ(view.rows().size(), 1u);
    EXPECT_DOUBLE_EQ(view.rows()[0].vms[0].coreUtil, 0.5);
    EXPECT_EQ(view.rows()[0].batchLoanedDelta, 3u);
}

TEST(ObservationViewEdges, DrainTailCollidingWithTickDeduplicates)
{
    ObservationView view;
    ServerCounters cum;
    cum.t = 1000;
    cum.vms.resize(1);
    cum.vms[0].busyCycles = 500;
    cum.vms[0].coresBound = 1;
    view.record(cum);
    view.record(cum); // final-row call landing exactly on the tick
    ASSERT_EQ(view.rows().size(), 1u);
    EXPECT_EQ(view.epochs(), 1u);

    // A later record still diffs against the (unchanged) baseline.
    cum.t = 2000;
    cum.vms[0].busyCycles = 700;
    view.record(cum);
    ASSERT_EQ(view.rows().size(), 2u);
    EXPECT_DOUBLE_EQ(view.rows()[1].vms[0].coreUtil, 0.2);
}

TEST(ObservationViewEdges, BaselineRoundTripsThroughSnapshot)
{
    // Resume-before-first-tick: a view whose only state is the t=0
    // baseline must survive a save/load and then produce the same
    // first row as the uninterrupted view.
    ObservationView view;
    ServerCounters cum;
    cum.t = 0;
    cum.vms.resize(1);
    cum.vms[0].busyCycles = 100;
    cum.vms[0].coresBound = 1;
    view.record(cum);

    auto save = hh::snap::Archive::forSave();
    view.serialize(save);
    const auto blob = save.take();
    ObservationView loaded;
    auto load = hh::snap::Archive::forLoad(blob);
    loaded.serialize(load);
    ASSERT_TRUE(load.ok()) << load.error();

    cum.t = 500;
    cum.vms[0].busyCycles = 400;
    view.record(cum);
    loaded.record(cum);
    ASSERT_EQ(view.rows().size(), 1u);
    ASSERT_EQ(loaded.rows().size(), 1u);
    EXPECT_DOUBLE_EQ(loaded.rows()[0].vms[0].coreUtil,
                     view.rows()[0].vms[0].coreUtil);
}
