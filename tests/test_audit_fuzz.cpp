/**
 * @file
 * Invariant-auditor + fault-injection fuzz tests (the PR-3 harness).
 *
 * Full-server runs with the deterministic fault injector perturbing
 * the scheduling/harvesting surface (lend/reclaim storms,
 * reclaim-during-flush, delayed completions, bursty arrivals,
 * chunk-exhaustion pressure) while the invariant auditor sweeps the
 * cross-component state every few hundred events. A correct
 * simulator survives every seed with zero violations; the
 * deliberately resurrected lend/reclaim race from the seed tree is
 * the positive control proving the harness actually catches
 * corruption at the offending sim-time. The subsystem audits behind
 * the "rq", "qm", "cache" and "lease" invariants are also driven
 * directly, on hand-built objects with planted faults.
 */

#include <gtest/gtest.h>

#include <string>

#include "cache/hierarchy.h"
#include "cache/replacement.h"
#include "check/auditor.h"
#include "check/fault_inject.h"
#include "cluster/experiment.h"
#include "core/controller.h"
#include "core/rq.h"
#include "lease/cache_lease.h"
#include "sim/rng.h"
#include "sim/simulator.h"

using namespace hh::cluster;

namespace {

/** Reduced-scale config with auditing + fault injection armed. */
SystemConfig
auditConfig(SystemKind kind, std::uint64_t seed)
{
    SystemConfig cfg = makeSystem(kind);
    cfg.requestsPerVm = 30;
    cfg.accessSampling = 32;
    cfg.seed = seed;
    cfg.auditEnabled = true;
    cfg.auditPeriod = 512;
    cfg.faults.enabled = true;
    // Perturb aggressively at this scale.
    cfg.faults.meanPeriod = hh::sim::usToCycles(20);
    cfg.faults.startAt = hh::sim::usToCycles(10);
    cfg.faults.actionsPerTick = 3;
    return cfg;
}

/** Fail the test with every stored violation report. */
void
expectNoViolations(const ServerResults &res, const char *what)
{
    EXPECT_EQ(res.auditViolations, 0u) << what;
    for (const auto &v : res.auditReports)
        ADD_FAILURE() << what << ": [" << v.component
                      << "] t=" << v.time << ": " << v.message;
}

} // namespace

// ------------------------------------------------------- fuzz sweeps

class AuditFuzz : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(AuditFuzz, HardHarvestBlockSurvivesPerturbation)
{
    const auto cfg =
        auditConfig(SystemKind::HardHarvestBlock, GetParam());
    const auto res = runServer(cfg, "BFS", GetParam());
    EXPECT_GT(res.auditsRun, 0u);
    EXPECT_GT(res.faultsInjected, 0u);
    expectNoViolations(res, "HardHarvestBlock");
    // The perturbed run still completes every request.
    for (const auto &s : res.services)
        EXPECT_GT(s.count, 0u) << s.name;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AuditFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// Every evaluated system (hardware and software paths) holds its
// invariants under perturbation; one seed each keeps the suite fast.
TEST(AuditFuzzSystems, AllFiveSystemsSurviveOneSeed)
{
    hh::core::SubQueue::resetTeardownPayloadLeaks();
    for (const auto kind :
         {SystemKind::NoHarvest, SystemKind::HarvestTerm,
          SystemKind::HarvestBlock, SystemKind::HardHarvestTerm,
          SystemKind::HardHarvestBlock}) {
        const auto cfg = auditConfig(kind, 7);
        const auto res = runServer(cfg, "BFS", 7);
        EXPECT_GT(res.auditsRun, 0u) << systemName(kind);
        expectNoViolations(res, systemName(kind));
    }
    EXPECT_EQ(hh::core::SubQueue::teardownPayloadLeaks(), 0u);
}

// -------------------------------------------------- determinism

// The fault schedule is part of the deterministic state: a fuzzed
// cluster serializes bit-identically for any worker count, so a
// violation found in CI reproduces from its seed alone.
TEST(AuditFuzzDeterminism, BitIdenticalAcross148Workers)
{
    auto cfg = auditConfig(SystemKind::HardHarvestBlock, 5);
    cfg.requestsPerVm = 20;
    const auto a = runCluster(cfg, 4, 5, 1).serialized();
    const auto b = runCluster(cfg, 4, 5, 4).serialized();
    const auto c = runCluster(cfg, 4, 5, 8).serialized();
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, c);
    // The audit section is present and clean.
    EXPECT_NE(a.find("\naudit "), std::string::npos);
    EXPECT_EQ(a.find("violation"), std::string::npos);
}

// Same seed -> same perturbation schedule, twice in a row.
TEST(AuditFuzzDeterminism, InjectorScheduleReplays)
{
    const auto cfg = auditConfig(SystemKind::HardHarvestBlock, 9);
    const auto r1 = runServer(cfg, "CC", 9);
    const auto r2 = runServer(cfg, "CC", 9);
    EXPECT_EQ(r1.faultsInjected, r2.faultsInjected);
    EXPECT_EQ(r1.auditsRun, r2.auditsRun);
    EXPECT_GT(r1.faultsInjected, 0u);
}

// ------------------------------------------- overhead / gating

// With auditing disabled no Auditor exists, the simulator's hook is
// null, and the simulation is bit-identical to a run that never heard
// of auditing: checks are read-only observers, so enabling them must
// not perturb results either — the audited serialization is the
// baseline serialization plus the trailing audit section.
TEST(AuditOverhead, DisabledMeansAbsent)
{
    auto cfg = auditConfig(SystemKind::HardHarvestBlock, 3);
    cfg.auditEnabled = false;
    cfg.faults.enabled = false;
    ServerSim sim(cfg, "BFS", 3);
    EXPECT_EQ(sim.auditor(), nullptr);
    EXPECT_EQ(sim.faultInjector(), nullptr);
    const auto res = sim.run();
    EXPECT_EQ(res.auditsRun, 0u);
    EXPECT_EQ(res.faultsInjected, 0u);
}

TEST(AuditOverhead, AuditingDoesNotPerturbResults)
{
    auto off = auditConfig(SystemKind::HardHarvestBlock, 11);
    off.requestsPerVm = 20;
    off.auditEnabled = false;
    off.faults.enabled = false;
    auto on = off;
    on.auditEnabled = true;

    const auto base = runCluster(off, 2, 11, 1).serialized();
    const auto audited = runCluster(on, 2, 11, 1).serialized();
    ASSERT_GE(audited.size(), base.size());
    EXPECT_EQ(audited.substr(0, base.size()), base);
    EXPECT_NE(audited.find("\naudit "), std::string::npos);
}

// ------------------------------------------------ violation path

// An injected always-failing invariant is reported with its
// component tag and the simulated time of the sweep, and
// auditStopOnViolation aborts the run at that point.
TEST(AuditViolations, InjectedViolationIsReportedWithContext)
{
    auto cfg = auditConfig(SystemKind::HardHarvestBlock, 3);
    cfg.faults.enabled = false;
    cfg.auditPeriod = 128;
    cfg.auditStopOnViolation = true;
    ServerSim sim(cfg, "BFS", 3);
    ASSERT_NE(sim.auditor(), nullptr);
    sim.auditor()->addInvariant(
        "selftest", []() -> std::optional<std::string> {
            return "deliberately failing invariant";
        });
    const auto res = sim.run();
    ASSERT_GT(res.auditViolations, 0u);
    ASSERT_FALSE(res.auditReports.empty());
    const auto &v = res.auditReports.front();
    EXPECT_EQ(v.component, "selftest");
    EXPECT_GT(v.time, 0u);
    EXPECT_NE(v.message.find("deliberately"), std::string::npos);
    // Stop-on-violation: aborted after the first offending sweep
    // instead of running the full workload.
    EXPECT_LE(res.auditsRun, 2u);
}

// The resurrected seed bug (untracked lend-completion events): the
// auditor pinpoints the corruption at its sim-time instead of the
// run degenerating into a wall-clock hang toward the 600 s horizon.
TEST(AuditViolations, ResurrectedLendRaceIsCaught)
{
    auto cfg = auditConfig(SystemKind::HardHarvestBlock, 2);
    cfg.faults.resurrectLendRace = true;
    cfg.faults.meanPeriod = hh::sim::usToCycles(5);
    cfg.faults.actionsPerTick = 6;
    cfg.auditPeriod = 64;
    cfg.auditStopOnViolation = true;
    const auto res = runServer(cfg, "BFS", 2);
    ASSERT_GT(res.auditViolations, 0u);
    ASSERT_FALSE(res.auditReports.empty());
    const auto &v = res.auditReports.front();
    // The corruption surfaces as core/request-level inconsistency.
    EXPECT_TRUE(v.component == "core" || v.component == "request" ||
                v.component == "hv")
        << v.component << ": " << v.message;
    EXPECT_GT(v.time, 0u);
}

// The same run, pinned: the sweep that finds the race stops the run,
// and finishing it does not sweep that instant again, so the one
// violation is stored and counted once.
TEST(AuditViolations, StoppedRunReportsTheLendRaceOnce)
{
    auto cfg = auditConfig(SystemKind::HardHarvestBlock, 2);
    cfg.faults.resurrectLendRace = true;
    cfg.faults.meanPeriod = hh::sim::usToCycles(5);
    cfg.faults.actionsPerTick = 6;
    cfg.auditPeriod = 64;
    cfg.auditStopOnViolation = true;
    const auto res = runServer(cfg, "BFS", 2);
    ASSERT_EQ(res.auditViolations, 1u);
    ASSERT_EQ(res.auditReports.size(), 1u);
    const auto &v = res.auditReports.front();
    EXPECT_EQ(v.component, "request");
    EXPECT_EQ(v.time, 1868657u);
    EXPECT_EQ(v.message, "request 64 (vm 4) is Running on 0 cores "
                         "(orphaned or duplicated)");
}

// ------------------------------------------------ unit-level checks

TEST(Auditor, CapsStoredReportsButCountsAll)
{
    hh::check::Auditor aud;
    aud.addInvariant("unit", []() -> std::optional<std::string> {
        return "always broken";
    });
    const std::size_t sweeps =
        hh::check::Auditor::kMaxStoredViolations + 10;
    for (std::size_t i = 0; i < sweeps; ++i)
        EXPECT_EQ(aud.audit(i), 1u);
    EXPECT_EQ(aud.violationCount(), sweeps);
    EXPECT_EQ(aud.violations().size(),
              hh::check::Auditor::kMaxStoredViolations);
    EXPECT_EQ(aud.auditsRun(), sweeps);
    EXPECT_EQ(aud.invariantCount(), 1u);
    // Reports carry the sweep time they were observed at.
    EXPECT_EQ(aud.violations().front().time, 0u);
    EXPECT_EQ(aud.violations().back().time,
              hh::check::Auditor::kMaxStoredViolations - 1);
}

TEST(Auditor, HoldingInvariantsReportNothing)
{
    hh::check::Auditor aud;
    aud.addInvariant("ok", []() -> std::optional<std::string> {
        return std::nullopt;
    });
    EXPECT_EQ(aud.audit(42), 0u);
    EXPECT_EQ(aud.violationCount(), 0u);
    EXPECT_TRUE(aud.violations().empty());
}

TEST(FaultInjector, FiresActionsOnSeededSchedule)
{
    hh::sim::Simulator sim;
    hh::check::FaultConfig cfg;
    cfg.enabled = true;
    cfg.meanPeriod = 1000;
    cfg.startAt = 10;
    cfg.actionsPerTick = 2;
    hh::check::FaultInjector inj(sim, 123, cfg);
    std::uint64_t hits_a = 0;
    std::uint64_t hits_b = 0;
    inj.addAction("a", [&](hh::sim::Rng &) { ++hits_a; });
    inj.addAction("b", [&](hh::sim::Rng &) { ++hits_b; });
    inj.start();
    sim.run(100000);
    inj.stop();
    EXPECT_GT(inj.ticks(), 10u);
    EXPECT_EQ(inj.actionsFired(), hits_a + hits_b);
    EXPECT_EQ(inj.actionCount("a"), hits_a);
    EXPECT_EQ(inj.actionCount("b"), hits_b);
    EXPECT_EQ(inj.actionCount("nope"), 0u);
}

TEST(FaultInjector, MaxActionsBoundsTheTickChain)
{
    hh::sim::Simulator sim;
    hh::check::FaultConfig cfg;
    cfg.enabled = true;
    cfg.meanPeriod = 100;
    cfg.startAt = 1;
    cfg.actionsPerTick = 5;
    cfg.maxActions = 20;
    hh::check::FaultInjector inj(sim, 1, cfg);
    inj.addAction("noop", [](hh::sim::Rng &) {});
    inj.start();
    sim.run(10'000'000);
    EXPECT_LE(inj.actionsFired(), 20u);
    EXPECT_TRUE(sim.idle()); // the chain stopped by itself
}

// ------------------------------------------------- subsystem audits

TEST(AuditorChecks, ControllerAuditsItsRqAndMasks)
{
    hh::core::HardHarvestController ctrl(hh::core::ControllerConfig{},
                                         8);
    for (const std::uint32_t vm : {0u, 1u}) {
        auto &qm = ctrl.registerVm(vm, vm == 0, 4);
        qm.harvestMask().setFraction(0.5);
    }
    ctrl.enqueue(0, 7);
    EXPECT_EQ(ctrl.auditRq(), std::nullopt);
    EXPECT_EQ(ctrl.auditHarvestMasks(true), std::nullopt);

    // A mask with no harvest ways, or with nothing but harvest ways,
    // does not partition; without partitioning either is legal.
    using hh::core::MaskedStruct;
    auto &mask = ctrl.qmFor(1)->harvestMask();
    mask.setMask(MaskedStruct::L2, 0);
    EXPECT_EQ(ctrl.auditHarvestMasks(true),
              "vm 1 harvest mask for structure 2 does not partition");
    EXPECT_EQ(ctrl.auditHarvestMasks(false), std::nullopt);
    mask.setMask(MaskedStruct::L2,
                 (hh::cache::WayMask{1} << mask.wayCount(MaskedStruct::L2)) -
                     1);
    EXPECT_EQ(ctrl.auditHarvestMasks(true),
              "vm 1 harvest mask for structure 2 does not partition");

    // A chunk handed back to the free pool while still mapped.
    const unsigned chunk = ctrl.qmFor(0)->queue().rqMap().front();
    ctrl.rq().freeChunk(chunk);
    EXPECT_EQ(ctrl.auditRq(), "chunk " + std::to_string(chunk) +
                                  " mapped by vm 0 but marked free");
    ASSERT_EQ(ctrl.rq().allocChunk(), static_cast<int>(chunk));
    EXPECT_EQ(ctrl.auditRq(), std::nullopt);
    ctrl.qmFor(0)->queue().discard();
}

TEST(AuditorChecks, ControllerFlagsADuplicatedPayload)
{
    hh::core::HardHarvestController ctrl(hh::core::ControllerConfig{},
                                         4);
    ctrl.registerVm(0, true, 4);
    ctrl.enqueue(0, 7);
    ctrl.enqueue(0, 7);
    EXPECT_EQ(ctrl.auditRq(),
              "request 7 present twice in vm 0's subqueue");
    ctrl.qmFor(0)->queue().discard();
}

TEST(AuditorChecks, HierarchyAuditsItsPartition)
{
    hh::cache::HierarchyConfig hcfg;
    hcfg.partitioning = true;
    hh::cache::CoreHierarchy h(hcfg, nullptr, nullptr);
    EXPECT_EQ(h.auditPartition(), std::nullopt);

    h.l2().setHarvestWays(h.l2().allWays());
    EXPECT_EQ(h.auditPartition(), "l2 harvest region covers every way");
    h.l2().setHarvestWays(0);
    EXPECT_EQ(h.auditPartition(), "l2 has an empty harvest region");

    // Unpartitioned hierarchies carry no harvest region at all.
    hcfg.partitioning = false;
    hh::cache::CoreHierarchy flat(hcfg, nullptr, nullptr);
    EXPECT_EQ(flat.auditPartition(), std::nullopt);
    flat.l1d().setHarvestWays(flat.l1d().allWays());
    EXPECT_EQ(flat.auditPartition(), std::nullopt);
}

TEST(AuditorChecks, LeaseManagerFlagsABatchLineInAReturnedWay)
{
    using hh::cache::WayMask;
    hh::cache::SetAssocArray l3(
        hh::cache::Geometry{64, 16, 36},
        hh::cache::makePolicy(hh::cache::ReplKind::LRU));
    hh::lease::CacheLeaseManager mgr(2, 1000);
    // VM 1 is the borrower: it has no partition to audit.
    const hh::cache::SetAssocArray *l3ByVm[] = {&l3, nullptr};
    const std::uint32_t batchAsid = 9;
    const auto lineOf = [](std::uint32_t asid, hh::cache::Addr page) {
        return ((hh::cache::Addr{asid} << 42) | page) *
               hh::cache::kLinesPerPage;
    };
    EXPECT_EQ(mgr.audit(l3ByVm, batchAsid), std::nullopt);

    mgr.grant(0, l3, 0, WayMask{0b11}, 0);
    EXPECT_EQ(mgr.audit(l3ByVm, batchAsid), std::nullopt);
    l3.setHarvestWays(0);
    EXPECT_EQ(mgr.audit(l3ByVm, batchAsid),
              "vm 0 L3 harvest mask disagrees with its lease slot");
    l3.setHarvestWays(0b11);

    mgr.release(0, l3, 10, false);
    EXPECT_EQ(mgr.audit(l3ByVm, batchAsid), std::nullopt);
    // The owner's own lines may refill a returned way.
    l3.access(lineOf(1, 5), true, WayMask{1});
    EXPECT_EQ(mgr.audit(l3ByVm, batchAsid), std::nullopt);
    // A borrower line in a returned way is what lease_overstay plants.
    l3.access(lineOf(batchAsid, 6), true, WayMask{1} << 1);
    EXPECT_EQ(mgr.audit(l3ByVm, batchAsid),
              "vm 0 L3 way 1 holds a batch line after its lease ended");
}
