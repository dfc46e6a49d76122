/**
 * @file
 * Unit tests for the replacement policies, with special focus on
 * the HardHarvest policy's Algorithm 1 semantics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <ostream>
#include <vector>

#include "cache/repl_cdp.h"
#include "cache/repl_hardharvest.h"
#include "cache/repl_lru.h"
#include "cache/repl_rrip.h"
#include "cache/replacement.h"
#include "cache/set_assoc.h"
#include "sim/rng.h"

using namespace hh::cache;

namespace {

/** One way as the fixture's tests edit it; recency is a stamp. */
struct FixtureWay
{
    bool valid = false;
    Addr tag = 0;
    bool shared = false;
    bool instr = false;
    std::uint64_t lastUse = 0;
    std::uint8_t rrpv = 3;
};

/**
 * Build a 4-way set context for direct policy testing: tests edit
 * `ways`, and refresh() rebuilds the column view the policies read,
 * ranking the ways by (lastUse, index) as the array would.
 */
struct SetFixture
{
    std::vector<FixtureWay> ways;
    std::vector<Addr> tags;
    std::vector<std::uint8_t> rank;
    std::vector<std::uint8_t> rrpv;
    SetContext ctx;

    explicit SetFixture(unsigned n = 4)
        : ways(n)
    {
        ctx.harvestMask = 0b0011; // ways 0-1 are the harvest region
        ctx.allowedMask = (WayMask{1} << n) - 1;
        ctx.candidates = n;
        refresh();
    }

    void
    refresh()
    {
        tags.clear();
        rank.assign(ways.size(), 0);
        rrpv.clear();
        ctx.validMask = ctx.sharedMask = ctx.instrMask = 0;
        for (std::size_t i = 0; i < ways.size(); ++i) {
            const WayMask bit = WayMask{1} << i;
            tags.push_back(ways[i].tag);
            rrpv.push_back(ways[i].rrpv);
            ctx.validMask |= ways[i].valid ? bit : 0;
            ctx.sharedMask |= ways[i].shared ? bit : 0;
            ctx.instrMask |= ways[i].instr ? bit : 0;
            // The rank is the number of ways ordered before this one.
            for (std::size_t j = 0; j < ways.size(); ++j) {
                const bool older =
                    ways[j].lastUse < ways[i].lastUse ||
                    (ways[j].lastUse == ways[i].lastUse && j < i);
                rank[i] += older ? 1 : 0;
            }
        }
        ctx.tags = tags.data();
        ctx.rank = rank.data();
        ctx.rrpv = rrpv.data();
        ctx.ways = static_cast<unsigned>(ways.size());
    }

    void
    fillAll(bool shared, std::uint64_t base_tick = 1)
    {
        for (std::size_t i = 0; i < ways.size(); ++i) {
            ways[i].valid = true;
            ways[i].shared = shared;
            ways[i].tag = 100 + i;
            ways[i].lastUse = base_tick + i;
        }
        refresh();
    }
};

} // namespace

// ---------------------------------------------------------------- LRU

TEST(Lru, PrefersInvalidSlots)
{
    SetFixture f;
    f.fillAll(true);
    f.ways[2].valid = false;
    f.refresh();
    LruPolicy p;
    EXPECT_EQ(p.victim(f.ctx, true), 2u);
}

TEST(Lru, EvictsLeastRecentlyUsed)
{
    SetFixture f;
    f.fillAll(true);
    f.ways[3].lastUse = 0; // oldest
    f.refresh();
    LruPolicy p;
    EXPECT_EQ(p.victim(f.ctx, true), 3u);
}

TEST(Lru, RespectsAllowedMask)
{
    SetFixture f;
    f.fillAll(true);
    f.ways[0].lastUse = 0; // globally LRU but not allowed
    f.ctx.allowedMask = 0b1100;
    f.refresh();
    LruPolicy p;
    const unsigned v = p.victim(f.ctx, true);
    EXPECT_TRUE(v == 2 || v == 3);
}

// --------------------------------------------------------------- RRIP

TEST(Rrip, InsertsAtLongInterval)
{
    RripPolicy p;
    WayState w;
    p.fill(w.rrpv);
    EXPECT_EQ(w.rrpv, 2);
}

TEST(Rrip, PromotesOnHit)
{
    RripPolicy p;
    WayState w;
    p.fill(w.rrpv);
    p.touch(w.rrpv);
    EXPECT_EQ(w.rrpv, 0);
}

TEST(Rrip, VictimHasMaxRrpv)
{
    SetFixture f;
    f.fillAll(true);
    f.ways[0].rrpv = 1;
    f.ways[1].rrpv = 3;
    f.ways[2].rrpv = 2;
    f.ways[3].rrpv = 0;
    f.refresh();
    RripPolicy p;
    EXPECT_EQ(p.victim(f.ctx, true), 1u);
}

TEST(Rrip, TieBrokenByLru)
{
    SetFixture f;
    f.fillAll(true);
    for (auto &w : f.ways)
        w.rrpv = 2;
    f.ways[2].lastUse = 0;
    f.refresh();
    RripPolicy p;
    EXPECT_EQ(p.victim(f.ctx, true), 2u);
}

// -------------------------------------------- HardHarvest Algorithm 1

TEST(HardHarvest, SharedEntryPrefersInvalidNonHarvestSlot)
{
    SetFixture f;
    f.fillAll(true);
    f.ways[1].valid = false; // harvest region
    f.ways[3].valid = false; // non-harvest region
    f.refresh();
    HardHarvestPolicy p;
    EXPECT_EQ(p.victim(f.ctx, /*incoming_shared=*/true), 3u);
}

TEST(HardHarvest, PrivateEntryPrefersInvalidHarvestSlot)
{
    SetFixture f;
    f.fillAll(true);
    f.ways[1].valid = false;
    f.ways[3].valid = false;
    f.refresh();
    HardHarvestPolicy p;
    EXPECT_EQ(p.victim(f.ctx, /*incoming_shared=*/false), 1u);
}

TEST(HardHarvest, AnyInvalidSlotWhenPreferredRegionFull)
{
    SetFixture f;
    f.fillAll(true);
    f.ways[0].valid = false; // only a harvest slot is empty
    f.refresh();
    HardHarvestPolicy p;
    // Shared entry would prefer non-harvest, but takes the empty slot.
    EXPECT_EQ(p.victim(f.ctx, true), 0u);
}

TEST(HardHarvest, SharedEvictsPrivateInNonHarvestFirst)
{
    SetFixture f;
    f.fillAll(true);
    f.ways[1].shared = false; // private in harvest region
    f.ways[2].shared = false; // private in non-harvest region
    f.refresh();
    HardHarvestPolicy p;
    EXPECT_EQ(p.victim(f.ctx, true), 2u);
}

TEST(HardHarvest, SharedFallsBackToPrivateInHarvest)
{
    SetFixture f;
    f.fillAll(true);
    f.ways[0].shared = false; // only private entry, harvest region
    f.refresh();
    HardHarvestPolicy p;
    EXPECT_EQ(p.victim(f.ctx, true), 0u);
}

TEST(HardHarvest, PrivateEvictsPrivateInHarvestFirst)
{
    SetFixture f;
    f.fillAll(true);
    f.ways[1].shared = false; // private in harvest region
    f.ways[2].shared = false; // private in non-harvest region
    f.refresh();
    HardHarvestPolicy p;
    EXPECT_EQ(p.victim(f.ctx, false), 1u);
}

TEST(HardHarvest, PrivateFallsBackToPrivateInNonHarvest)
{
    SetFixture f;
    f.fillAll(true);
    f.ways[3].shared = false;
    f.refresh();
    HardHarvestPolicy p;
    EXPECT_EQ(p.victim(f.ctx, false), 3u);
}

TEST(HardHarvest, AllSharedFallsBackToLru)
{
    SetFixture f;
    f.fillAll(true);
    f.ways[2].lastUse = 0;
    f.refresh();
    HardHarvestPolicy p;
    EXPECT_EQ(p.victim(f.ctx, true), 2u);
    EXPECT_EQ(p.victim(f.ctx, false), 2u);
}

TEST(HardHarvest, CandidateMaskRestrictsEviction)
{
    SetFixture f;
    f.fillAll(true);
    f.ways[0].shared = false; // private, harvest, but NOT a candidate
    f.ways[0].lastUse = 10;   // most recently used
    f.ways[3].lastUse = 0;    // LRU
    f.ctx.candidates = 3;     // ways 3, 1, 2 in LRU order
    f.refresh();
    HardHarvestPolicy p;
    // Incoming private would take way 0, but it is protected;
    // no other private entries, so LRU among candidates: way 3.
    EXPECT_EQ(p.victim(f.ctx, false), 3u);
    // With every way a candidate, way 0 is the class-3 victim.
    f.ctx.candidates = 4;
    EXPECT_EQ(p.victim(f.ctx, false), 0u);
}

TEST(HardHarvest, InvalidSlotsIgnoreCandidateRestriction)
{
    SetFixture f;
    f.fillAll(true);
    f.ways[0].valid = false;
    f.ways[0].lastUse = 10; // way 0 not a candidate
    f.ctx.candidates = 1;
    f.refresh();
    HardHarvestPolicy p;
    EXPECT_EQ(p.victim(f.ctx, false), 0u);
}

TEST(HardHarvest, TieWithinClassBrokenByLru)
{
    SetFixture f;
    f.fillAll(true);
    f.ways[2].shared = false;
    f.ways[3].shared = false;
    f.ways[3].lastUse = 0;
    f.refresh();
    HardHarvestPolicy p;
    EXPECT_EQ(p.victim(f.ctx, true), 3u);
}

// ------------------------------------------------------ priority mux
// §4.2.4: the two priority multiplexers, exhaustively on a 2-way set
// (way 0 harvest, way 1 non-harvest).

TEST(HardHarvest, PriorityMuxSharedIncoming)
{
    SetFixture f(2);
    f.ctx.harvestMask = 0b01;
    f.ctx.allowedMask = 0b11;
    f.ctx.candidates = 2;
    HardHarvestPolicy p;

    // Invalid & NotHarvest beats Invalid & Harvest.
    f.ways[0] = FixtureWay{};
    f.ways[1] = FixtureWay{};
    f.refresh();
    EXPECT_EQ(p.victim(f.ctx, true), 1u);

    // NotHarvest & private beats Harvest & private.
    f.fillAll(false);
    EXPECT_EQ(p.victim(f.ctx, true), 1u);
}

TEST(HardHarvest, PriorityMuxPrivateIncoming)
{
    SetFixture f(2);
    f.ctx.harvestMask = 0b01;
    f.ctx.allowedMask = 0b11;
    f.ctx.candidates = 2;
    HardHarvestPolicy p;

    // Invalid & Harvest preferred.
    f.ways[0] = FixtureWay{};
    f.ways[1] = FixtureWay{};
    f.refresh();
    EXPECT_EQ(p.victim(f.ctx, false), 0u);

    // Harvest & private beats NotHarvest & private.
    f.fillAll(false);
    EXPECT_EQ(p.victim(f.ctx, false), 0u);
}

// ----------------------------------------------------------- factory

TEST(Factory, MakesEachKind)
{
    EXPECT_STREQ(makePolicy(ReplKind::LRU)->name(), "LRU");
    EXPECT_STREQ(makePolicy(ReplKind::RRIP)->name(), "RRIP");
    EXPECT_STREQ(makePolicy(ReplKind::HardHarvest)->name(),
                 "HardHarvest");
}

TEST(Factory, BeladyRequiresOracle)
{
    EXPECT_THROW(makePolicy(ReplKind::Belady), std::runtime_error);
}

TEST(Factory, KindNames)
{
    EXPECT_STREQ(replKindName(ReplKind::LRU), "LRU");
    EXPECT_STREQ(replKindName(ReplKind::Belady), "Belady");
}

// --------------------------------------------- behavioural property
// The HardHarvest policy should preserve shared (cross-invocation)
// state better than LRU when private streaming data washes through.

class SharedRetention : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(SharedRetention, HardHarvestBeatsLruOnSharedReuse)
{
    const std::uint64_t seed = GetParam();

    auto run = [&](ReplKind kind) {
        SetAssocArray arr(Geometry{16, 8, 1}, makePolicy(kind));
        arr.setHarvestWayCount(4);
        if (kind == ReplKind::HardHarvest)
            arr.setCandidateFraction(0.75);
        hh::sim::Rng rng(seed, 99);
        // Shared working set that fits; private stream that doesn't.
        std::uint64_t shared_hits = 0;
        std::uint64_t shared_refs = 0;
        std::uint64_t next_private = 1'000'000;
        for (int i = 0; i < 30000; ++i) {
            if (rng.bernoulli(0.5)) {
                ++shared_refs;
                shared_hits +=
                    arr.access(rng.uniformInt(std::uint64_t{48}), true)
                            .hit
                        ? 1
                        : 0;
            } else {
                arr.access(next_private++, false);
            }
        }
        return static_cast<double>(shared_hits) /
               static_cast<double>(shared_refs);
    };

    EXPECT_GT(run(ReplKind::HardHarvest), run(ReplKind::LRU));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedRetention,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// ----------------------------------- degenerate / out-of-range masks

namespace {

/** One degenerate-mask scenario for the victim() table test. */
struct MaskCase
{
    const char *name;
    WayMask allowed;     //!< May include bits beyond the 4-way set.
    unsigned candidates; //!< M; may exceed the allowed ways or be 0.
    bool incomingShared;
};

// Print a case by its name. The default printer dumps the raw struct
// bytes, pointer included, so test names would change from run to run.
void PrintTo(const MaskCase &c, std::ostream *os)
{
    *os << c.name;
}

/**
 * Scenarios that historically defeated the class-5 / safety-net
 * fallbacks: phantom mask bits beyond the set's geometry survived
 * into the victims mask, the LRU scan ignored them, and victim()
 * panicked with "empty allowed mask" despite valid in-range ways.
 */
const MaskCase kMaskCases[] = {
    // Out-of-range allowed bits alongside valid ones.
    {"allowed_with_phantom_bits", 0b1111 | (WayMask{0xF0} << 4), 4,
     true},
    // Harvest region itself carries phantom bits.
    {"harvest_mask_phantom", 0b1111 | (WayMask{1} << 17), 4, false},
    // One candidate, phantom allowed bits above it.
    {"one_candidate_phantom_allowed", 0b1111 | (WayMask{0xF} << 8), 1,
     true},
    // Fewer candidates than allowed ways, a phantom allowed bit too.
    {"fewer_candidates_than_allowed", 0b0111 | (WayMask{1} << 9), 2,
     true},
    // M above the number of allowed ways: every allowed way counts.
    {"candidates_exceed_allowed", 0b0011, 3, false},
    // M = 0 (never set by the array): only the LRU allowed way.
    {"zero_candidates", 0b0111, 0, true},
};

} // namespace

class DegenerateMasks : public ::testing::TestWithParam<MaskCase>
{};

TEST_P(DegenerateMasks, HardHarvestVictimStaysInRange)
{
    const MaskCase &c = GetParam();
    SetFixture f;
    f.fillAll(true); // all-shared: forces class 5 / safety net
    f.ctx.allowedMask = c.allowed;
    f.ctx.candidates = c.candidates;
    if (std::string(c.name) == "harvest_mask_phantom")
        f.ctx.harvestMask = 0b0011 | (WayMask{1} << 17);
    HardHarvestPolicy p;
    const unsigned v = p.victim(f.ctx, c.incomingShared);
    EXPECT_LT(v, f.ways.size()) << c.name;
    // The pick also respects the in-range part of allowed.
    EXPECT_TRUE((c.allowed >> v) & 1) << c.name;
}

TEST_P(DegenerateMasks, CdpVictimStaysInRange)
{
    const MaskCase &c = GetParam();
    SetFixture f;
    f.fillAll(true);
    f.ctx.allowedMask = c.allowed;
    f.ctx.candidates = c.candidates;
    CdpPolicy p;
    const unsigned v = p.victim(f.ctx, c.incomingShared);
    EXPECT_LT(v, f.ways.size()) << c.name;
    EXPECT_TRUE((c.allowed >> v) & 1) << c.name;
}

INSTANTIATE_TEST_SUITE_P(Table, DegenerateMasks,
                         ::testing::ValuesIn(kMaskCases));

// All-private candidates with a phantom-only first region must fall
// through the class ladder without picking a phantom way.
TEST(DegenerateMasks, PrivateEntriesWithPhantomRegion)
{
    SetFixture f;
    f.fillAll(false); // all-private
    f.ctx.allowedMask = 0b1111 | (WayMask{0x3} << 6);
    f.ctx.harvestMask = WayMask{0x3} << 6; // harvest region all phantom
    f.ctx.candidates = 1;
    HardHarvestPolicy p;
    // No in-range harvest way: the LRU non-harvest private way.
    EXPECT_EQ(p.victim(f.ctx, false), 0u);
}

// ------------------------------------------------ steered victim
// steeredVictim() tests each class's LRU way against M with one
// popcount over a bitmap of the allowed ways' ranks. The reference
// sorts the allowed ways by rank, takes the first M as the candidate
// mask and walks the classes over it.

namespace {

unsigned
bruteForceVictim(const SetContext &ctx, bool incoming_shared,
                 WayMask evictable)
{
    const WayMask allowed = ctx.allowedMask & ctx.wayMask();
    const WayMask harvest = allowed & ctx.harvestMask;
    const WayMask non_harvest = allowed & ~ctx.harvestMask;
    const WayMask first = incoming_shared ? non_harvest : harvest;
    const WayMask second = incoming_shared ? harvest : non_harvest;
    const WayMask inv = allowed & ~ctx.validMask;
    if (inv)
        return static_cast<unsigned>(
            std::countr_zero((inv & first) ? (inv & first) : inv));
    std::vector<unsigned> order;
    for (unsigned w = 0; w < ctx.ways; ++w) {
        if ((allowed >> w) & 1)
            order.push_back(w);
    }
    std::sort(order.begin(), order.end(), [&](unsigned a, unsigned b) {
        return ctx.rank[a] < ctx.rank[b];
    });
    WayMask cand = 0;
    for (std::size_t i = 0; i < order.size() && i < ctx.candidates; ++i)
        cand |= WayMask{1} << order[i];
    WayMask victims = cand & first & evictable;
    if (!victims)
        victims = cand & second & evictable;
    if (!victims)
        victims = cand;
    for (unsigned w : order) {
        if ((victims >> w) & 1)
            return w;
    }
    return 64;
}

} // namespace

TEST(SteeredVictim, MatchesBruteForceMLru)
{
    hh::sim::Rng rng(25, 7);
    std::uint64_t compared = 0;
    for (unsigned n = 1; n <= 16; ++n) {
        const WayMask full = (WayMask{1} << n) - 1;
        for (unsigned m = 1; m <= n + 1; ++m) {
            for (int trial = 0; trial < 64; ++trial) {
                std::vector<std::uint8_t> rank(n);
                for (unsigned w = 0; w < n; ++w)
                    rank[w] = static_cast<std::uint8_t>(w);
                for (unsigned w = n; w > 1; --w)
                    std::swap(rank[w - 1],
                              rank[rng.uniformInt(std::uint64_t{w})]);
                std::vector<Addr> tags(n);
                std::vector<std::uint8_t> rrpv(n, 3);
                SetContext ctx;
                ctx.tags = tags.data();
                ctx.rank = rank.data();
                ctx.rrpv = rrpv.data();
                ctx.ways = n;
                ctx.candidates = m;
                // Mostly full sets, where the candidates matter.
                ctx.validMask = trial % 8 == 0
                                    ? rng.uniformInt(full + 1)
                                    : full;
                ctx.sharedMask = rng.uniformInt(full + 1);
                ctx.instrMask = rng.uniformInt(full + 1);
                // Empty, full and random harvest regions.
                ctx.harvestMask = trial % 3 == 0   ? 0
                                  : trial % 3 == 1 ? full
                                                   : rng.uniformInt(full + 1);
                // Every way, then random non-empty subsets (some
                // with no more ways than M).
                ctx.allowedMask = trial % 4 == 0
                                      ? full
                                      : 1 + rng.uniformInt(full);
                for (bool shared : {false, true}) {
                    HardHarvestPolicy hh;
                    CdpPolicy cdp;
                    ASSERT_EQ(hh.victim(ctx, shared),
                              bruteForceVictim(
                                  ctx, shared,
                                  ctx.validMask & ~ctx.sharedMask))
                        << "ways " << n << " M " << m;
                    ASSERT_EQ(cdp.victim(ctx, shared),
                              bruteForceVictim(
                                  ctx, shared,
                                  ctx.validMask & ~ctx.instrMask))
                        << "ways " << n << " M " << m;
                    compared += 2;
                }
            }
        }
    }
    EXPECT_EQ(compared, 4u * 64u * (16u * 17u / 2u + 16u));
}

TEST(PolicyHooks, RankOnlyPoliciesSkipThem)
{
    EXPECT_FALSE(LruPolicy().hasAccessHooks());
    EXPECT_FALSE(HardHarvestPolicy().hasAccessHooks());
    EXPECT_FALSE(CdpPolicy().hasAccessHooks());
    EXPECT_TRUE(RripPolicy().hasAccessHooks());
}
