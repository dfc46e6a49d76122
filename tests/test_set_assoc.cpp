/**
 * @file
 * Unit tests for the generic set-associative array: lookups, fills,
 * way masks, harvest regions, selective flushing and statistics.
 */

#include <gtest/gtest.h>

#include <bit>
#include <ostream>
#include <string>
#include <vector>

#include "cache/repl_belady.h"
#include "cache/repl_lru.h"
#include "cache/set_assoc.h"
#include "sim/rng.h"

using hh::cache::Addr;
using hh::cache::Geometry;
using hh::cache::LruPolicy;
using hh::cache::SetAssocArray;
using hh::cache::WayMask;

namespace {

SetAssocArray
makeArray(std::uint32_t sets = 4, std::uint32_t ways = 4)
{
    return SetAssocArray(Geometry{sets, ways, 1},
                         std::make_unique<LruPolicy>());
}

} // namespace

TEST(SetAssoc, MissThenHit)
{
    auto a = makeArray();
    EXPECT_FALSE(a.access(0x100, true).hit);
    EXPECT_TRUE(a.access(0x100, true).hit);
    EXPECT_EQ(a.hits(), 1u);
    EXPECT_EQ(a.misses(), 1u);
}

TEST(SetAssoc, DistinctKeysDistinctEntries)
{
    auto a = makeArray();
    a.access(1, true);
    a.access(2, true);
    EXPECT_TRUE(a.probe(1));
    EXPECT_TRUE(a.probe(2));
    EXPECT_EQ(a.validCount(), 2u);
}

TEST(SetAssoc, LruEvictionOrder)
{
    auto a = makeArray(1, 2);
    a.access(1, true);
    a.access(2, true);
    a.access(1, true);       // 2 is now LRU
    const auto r = a.access(3, true);
    EXPECT_TRUE(r.evictedValid);
    EXPECT_FALSE(a.probe(2)); // the LRU entry was evicted
    EXPECT_TRUE(a.probe(1));
    EXPECT_TRUE(a.probe(3));
}

TEST(SetAssoc, EvictionCountsOnlyValidVictims)
{
    auto a = makeArray(1, 2);
    a.access(1, true);
    a.access(2, true);
    EXPECT_EQ(a.evictions(), 0u);
    a.access(3, true);
    EXPECT_EQ(a.evictions(), 1u);
}

TEST(SetAssoc, KeysMapToSetsByLowBits)
{
    auto a = makeArray(4, 1);
    // Keys 0 and 4 share set 0 with 1 way: second evicts first.
    a.access(0, true);
    a.access(4, true);
    EXPECT_FALSE(a.probe(0));
    // Key 1 lives in set 1, untouched.
    a.access(1, true);
    EXPECT_TRUE(a.probe(1));
    EXPECT_TRUE(a.probe(4));
}

TEST(SetAssoc, ProbeDoesNotFill)
{
    auto a = makeArray();
    EXPECT_FALSE(a.probe(42));
    EXPECT_EQ(a.validCount(), 0u);
    EXPECT_EQ(a.misses(), 0u);
}

TEST(SetAssoc, FlushAllInvalidatesEverything)
{
    auto a = makeArray();
    for (int i = 0; i < 8; ++i)
        a.access(static_cast<hh::cache::Addr>(i), true);
    a.flushAll();
    EXPECT_EQ(a.validCount(), 0u);
    EXPECT_FALSE(a.probe(0));
}

TEST(SetAssoc, FlushWaysIsSelective)
{
    auto a = makeArray(1, 4);
    // Fill ways 0..3 with keys 0,1,2,3 (all map to set 0 via sets=1).
    for (int i = 0; i < 4; ++i)
        a.access(static_cast<hh::cache::Addr>(i), true);
    EXPECT_EQ(a.validCount(), 4u);
    a.flushWays(0b0011);
    EXPECT_EQ(a.validCount(), 2u);
}

TEST(SetAssoc, AllowedMaskRestrictsFills)
{
    auto a = makeArray(1, 4);
    // Only way 0 allowed: repeated fills keep evicting way 0.
    a.access(1, true, 0b0001);
    a.access(2, true, 0b0001);
    EXPECT_EQ(a.validCount(), 1u);
    EXPECT_FALSE(a.probe(1));
    EXPECT_TRUE(a.probe(2));
}

TEST(SetAssoc, LookupScansAllWaysRegardlessOfMask)
{
    auto a = makeArray(1, 4);
    a.access(1, true, 0b1000); // filled into way 3
    // Even with a different allowed mask, the lookup still hits.
    EXPECT_TRUE(a.access(1, true, 0b0001).hit);
}

TEST(SetAssoc, EmptyAllowedMaskPanics)
{
    auto a = makeArray();
    EXPECT_THROW(a.access(1, true, 0), std::logic_error);
}

TEST(SetAssoc, HarvestWayHelpers)
{
    auto a = makeArray(2, 8);
    a.setHarvestWayCount(4);
    EXPECT_EQ(a.harvestWays(), 0b1111u);
    a.setHarvestWays(0b1010'1010);
    EXPECT_EQ(a.harvestWays(), 0b1010'1010u);
    EXPECT_EQ(a.allWays(), 0xFFu);
}

TEST(SetAssoc, HarvestMaskClampedToWays)
{
    auto a = makeArray(2, 4);
    a.setHarvestWays(~WayMask{0});
    EXPECT_EQ(a.harvestWays(), 0b1111u);
    a.setHarvestWayCount(100);
    EXPECT_EQ(a.harvestWays(), 0b1111u);
}

TEST(SetAssoc, HitRate)
{
    auto a = makeArray();
    a.access(1, true);
    a.access(1, true);
    a.access(1, true);
    a.access(2, true);
    EXPECT_DOUBLE_EQ(a.hitRate(), 0.5);
    a.resetStats();
    EXPECT_DOUBLE_EQ(a.hitRate(), 0.0);
    EXPECT_EQ(a.hits(), 0u);
}

TEST(SetAssoc, SharedBitStoredPerEntry)
{
    auto a = makeArray(1, 2);
    a.access(1, true);
    a.access(2, false);
    EXPECT_TRUE(a.wayState(0, 0).shared);
    EXPECT_FALSE(a.wayState(0, 1).shared);
}

TEST(SetAssoc, CandidateFractionValidation)
{
    auto a = makeArray();
    EXPECT_THROW(a.setCandidateFraction(0.0), std::runtime_error);
    EXPECT_THROW(a.setCandidateFraction(1.5), std::runtime_error);
    a.setCandidateFraction(0.75); // fine
}

TEST(SetAssoc, InvalidGeometryFatal)
{
    EXPECT_THROW(SetAssocArray(Geometry{0, 4, 1},
                               std::make_unique<LruPolicy>()),
                 std::runtime_error);
    EXPECT_THROW(SetAssocArray(Geometry{4, 0, 1},
                               std::make_unique<LruPolicy>()),
                 std::runtime_error);
    EXPECT_THROW(SetAssocArray(Geometry{4, 65, 1},
                               std::make_unique<LruPolicy>()),
                 std::runtime_error);
}

TEST(SetAssoc, NonPowerOfTwoSetsWork)
{
    auto a = SetAssocArray(Geometry{3, 2, 1},
                           std::make_unique<LruPolicy>());
    for (hh::cache::Addr k = 0; k < 6; ++k)
        a.access(k, true);
    EXPECT_EQ(a.validCount(), 6u);
}

TEST(SetAssoc, WayStateOutOfRangePanics)
{
    auto a = makeArray(2, 2);
    EXPECT_THROW(a.wayState(2, 0), std::logic_error);
    EXPECT_THROW(a.wayState(0, 2), std::logic_error);
}

// ----------------------------------- partition moves (cache leases)

/**
 * One harvest-mask transition as the cache-lease subsystem performs
 * it: fill the array, flush the ways leaving the old region, install
 * the new mask. See CacheLeaseManager::grant()/release().
 */
struct PartitionMoveCase
{
    const char *label;
    WayMask before;    //!< harvest mask before the move
    WayMask after;     //!< harvest mask after the move
};

// Print a case by its label. The default printer dumps the raw struct
// bytes, pointer included, so test names would change from run to run.
void PrintTo(const PartitionMoveCase &c, std::ostream *os)
{
    *os << c.label;
}

class SetAssocPartitionMove
    : public ::testing::TestWithParam<PartitionMoveCase>
{};

TEST_P(SetAssocPartitionMove, DepartingWaysFlushSurvivorsKeepState)
{
    const auto &c = GetParam();
    auto a = makeArray(2, 8);
    a.setHarvestWays(c.before);
    // Fill every way of both sets; alternate the shared bit so
    // surviving entries prove their metadata rides along.
    for (hh::cache::Addr k = 0; k < 16; ++k)
        a.access(k, (k & 1) != 0);
    ASSERT_EQ(a.validCount(), 16u);

    // The move: ways leaving the harvest region are flushed (both
    // grant and release flush the leased ways), then the mask flips.
    const WayMask departing = c.before & ~c.after;
    const WayMask arriving = c.after & ~c.before;
    a.flushWays(departing);
    a.setHarvestWays(c.after);
    EXPECT_EQ(a.harvestWays(), c.after & a.allWays());

    // Departing ways are empty, untouched ways kept everything.
    EXPECT_EQ(a.validCountInWays(departing), 0u);
    const WayMask untouched = a.allWays() & ~departing;
    EXPECT_EQ(a.validCountInWays(untouched),
              2ull * std::popcount(untouched));
    EXPECT_EQ(a.validCount(), a.validCountInWays(a.allWays()));

    // Arriving ways were not flushed by the move (the manager
    // flushes them at grant time, a separate step).
    EXPECT_EQ(a.validCountInWays(arriving),
              2ull * std::popcount(arriving));

    // Survivors keep tag and shared bit: the enumeration sees
    // exactly the filled keys, with the parity metadata intact.
    std::uint64_t seen = 0;
    a.forEachValidInWays(untouched, [&](std::uint32_t s, unsigned w,
                                        hh::cache::Addr tag) {
        ++seen;
        EXPECT_EQ(tag & 1u, static_cast<hh::cache::Addr>(s));
        EXPECT_EQ(a.wayState(s, w).shared, (tag & 1) != 0);
    });
    EXPECT_EQ(seen, a.validCountInWays(untouched));
}

INSTANTIATE_TEST_SUITE_P(
    Moves, SetAssocPartitionMove,
    ::testing::Values(
        PartitionMoveCase{"shrink", 0b0000'1111, 0b0000'0011},
        PartitionMoveCase{"grow", 0b0000'0011, 0b0000'1111},
        PartitionMoveCase{"disjoint", 0b0000'1100, 0b0011'0000},
        PartitionMoveCase{"single_way", 0b0000'0001, 0b0000'0010},
        PartitionMoveCase{"to_nothing", 0b0000'0111, 0b0000'0000},
        PartitionMoveCase{"from_nothing", 0b0000'0000,
                          0b0000'0001}));

TEST(SetAssocWayScan, CountAndEnumerationAgree)
{
    auto a = makeArray(4, 4);
    // Sparse fill: only sets 0 and 2, restricted to ways {0, 2}.
    a.access(0, true, 0b0101);
    a.access(8, true, 0b0101);  // set 0 again, second allowed way
    a.access(2, false, 0b0101); // set 2
    EXPECT_EQ(a.validCountInWays(0b0101), 3u);
    EXPECT_EQ(a.validCountInWays(0b1010), 0u);
    EXPECT_EQ(a.validCountInWays(0), 0u);
    // Out-of-range mask bits are ignored, not miscounted.
    EXPECT_EQ(a.validCountInWays(~WayMask{0}), 3u);
    std::uint64_t seen = 0;
    a.forEachValidInWays(~WayMask{0},
                         [&](std::uint32_t, unsigned w,
                             hh::cache::Addr) {
                             ++seen;
                             EXPECT_TRUE(w == 0 || w == 2);
                         });
    EXPECT_EQ(seen, 3u);
}

TEST(SetAssocWayScan, FlushedEntriesDisappearFromTheScan)
{
    auto a = makeArray(1, 4);
    for (hh::cache::Addr k = 0; k < 4; ++k)
        a.access(k, true);
    a.flushWays(0b0110);
    std::vector<hh::cache::Addr> tags;
    a.forEachValidInWays(~WayMask{0},
                         [&](std::uint32_t, unsigned,
                             hh::cache::Addr t) { tags.push_back(t); });
    ASSERT_EQ(tags.size(), 2u);
    EXPECT_EQ(a.validCountInWays(0b0110), 0u);
    EXPECT_EQ(a.validCountInWays(0b1001), 2u);
}

/** Property: filling N distinct keys never exceeds capacity. */
class SetAssocCapacity
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{};

TEST_P(SetAssocCapacity, ValidCountBounded)
{
    const auto [sets, ways] = GetParam();
    SetAssocArray a(Geometry{sets, ways, 1},
                    std::make_unique<LruPolicy>());
    for (hh::cache::Addr k = 0; k < sets * ways * 3; ++k)
        a.access(k * 7919, true);
    EXPECT_LE(a.validCount(),
              static_cast<std::uint64_t>(sets) * ways);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SetAssocCapacity,
    ::testing::Values(std::make_pair(1u, 1u), std::make_pair(4u, 2u),
                      std::make_pair(64u, 12u),
                      std::make_pair(256u, 8u),
                      std::make_pair(32u, 16u)));

// ---------------------------------------------------------- tag match
// detail::matchTags compares two ways per SSE2 lane pair on x86-64 and
// the odd last way alone. Each tag row below is its own heap block of
// exactly `ways` tags, so a load past the last way is an over-read an
// address sanitizer reports.

namespace {

constexpr unsigned kTagMatchWays[] = {1, 3, 5, 7, 12, 16, 64};

WayMask
lowWays(unsigned ways)
{
    return ways == 64 ? ~WayMask{0} : (WayMask{1} << ways) - 1;
}

} // namespace

TEST(TagMatch, FindsEveryWayAtEveryWayCount)
{
    using hh::cache::detail::matchTags;
    for (unsigned ways : kTagMatchWays) {
        std::vector<hh::cache::Addr> tags(ways);
        for (unsigned w = 0; w < ways; ++w)
            tags[w] = 0x9E3779B97F4A7C15ULL * (w + 1);
        for (unsigned w = 0; w < ways; ++w)
            EXPECT_EQ(matchTags(tags.data(), ways, tags[w]),
                      WayMask{1} << w)
                << ways << " ways, way " << w;
        EXPECT_EQ(matchTags(tags.data(), ways, 42), 0u) << ways;
        // A key held by every way matches every way.
        std::vector<hh::cache::Addr> same(ways, 7);
        EXPECT_EQ(matchTags(same.data(), ways, 7), lowWays(ways))
            << ways;
    }
}

TEST(TagMatch, KeysAgreeingInOneHalfMiss)
{
    using hh::cache::detail::matchTags;
    const hh::cache::Addr key = 0x0123456789ABCDEFULL;
    const hh::cache::Addr same_low = 0xFEDCBA9889ABCDEFULL;
    const hh::cache::Addr same_high = 0x0123456776543210ULL;
    for (unsigned ways : kTagMatchWays) {
        for (unsigned w = 0; w < ways; ++w) {
            std::vector<hh::cache::Addr> tags(ways, 0);
            tags[w] = same_low;
            EXPECT_EQ(matchTags(tags.data(), ways, key), 0u)
                << ways << " ways, way " << w;
            tags[w] = same_high;
            EXPECT_EQ(matchTags(tags.data(), ways, key), 0u)
                << ways << " ways, way " << w;
            tags[w] = key;
            EXPECT_EQ(matchTags(tags.data(), ways, key), WayMask{1} << w)
                << ways << " ways, way " << w;
        }
    }
}

TEST(TagMatch, KeyZeroMissesZeroedInvalidWays)
{
    for (unsigned ways : kTagMatchWays) {
        auto a = makeArray(3, ways);
        // Fresh and flushed ways hold tag 0 but are not valid.
        EXPECT_FALSE(a.probe(0)) << ways;
        EXPECT_FALSE(a.access(0, true).hit) << ways;
        EXPECT_TRUE(a.access(0, true).hit) << ways;
        a.flushAll();
        EXPECT_FALSE(a.probe(0)) << ways;
        EXPECT_FALSE(a.access(0, true).hit) << ways;
        a.flushWays(a.allWays());
        EXPECT_FALSE(a.probe(0)) << ways;
    }
}

TEST(TagMatch, ArrayHitsTheWayItFilled)
{
    for (unsigned ways : kTagMatchWays) {
        // Three sets (the modulo path): the middle set's tags sit
        // between two others, the last set's at the end of the column.
        auto a = makeArray(3, ways);
        std::vector<unsigned> filled;
        for (hh::cache::Addr i = 0; i < 3 * ways; ++i) {
            const auto r = a.access(1000 + i, i % 2 == 0);
            ASSERT_FALSE(r.hit) << ways;
            filled.push_back(r.way);
        }
        for (hh::cache::Addr i = 0; i < 3 * ways; ++i) {
            const auto r = a.access(1000 + i, i % 2 == 0);
            EXPECT_TRUE(r.hit) << ways << " ways, key " << i;
            EXPECT_EQ(r.way, filled[i]) << ways << " ways, key " << i;
            EXPECT_TRUE(a.probe(1000 + i));
        }
        EXPECT_FALSE(a.probe(1000 + 3 * ways)) << ways;
        EXPECT_EQ(a.hits(), 3u * ways);
        EXPECT_EQ(a.misses(), 3u * ways);
    }
}

TEST(SetAssocLayout, ColumnsStartOnHostLines)
{
    for (unsigned ways : kTagMatchWays) {
        for (std::uint32_t sets : {1u, 3u, 64u}) {
            auto a = makeArray(sets, ways);
            const auto tags =
                reinterpret_cast<std::uintptr_t>(a.tagRow(0).data());
            const auto row =
                reinterpret_cast<std::uintptr_t>(a.metadataRow(0).data());
            EXPECT_EQ(tags % 64, 0u) << sets << " x " << ways;
            EXPECT_EQ(row % 64, 0u) << sets << " x " << ways;
            EXPECT_EQ(a.tagRow(sets - 1).data(),
                      a.tagRow(0).data() +
                          static_cast<std::size_t>(sets - 1) * ways);
        }
    }
    // A snapshot load replaces both columns; they stay aligned.
    auto a = makeArray(3, 5);
    a.access(1, true);
    auto save = hh::snap::Archive::forSave();
    a.serialize(save);
    auto load = hh::snap::Archive::forLoad(save.take());
    a.serialize(load);
    ASSERT_TRUE(load.ok()) << load.error();
    EXPECT_TRUE(a.probe(1));
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.tagRow(0).data()) % 64,
              0u);
    EXPECT_EQ(
        reinterpret_cast<std::uintptr_t>(a.metadataRow(0).data()) % 64,
        0u);
}

// ------------------------------------------------------- probe runs

namespace {

/** A policy of @p kind; Belady reads @p oracle. */
std::unique_ptr<hh::cache::ReplacementPolicy>
runPolicy(hh::cache::ReplKind kind, const hh::cache::NextUseOracle &oracle)
{
    if (kind == hh::cache::ReplKind::Belady)
        return std::make_unique<hh::cache::BeladyPolicy>(oracle);
    return hh::cache::makePolicy(kind);
}

/** First way whose state differs between @p a and @p b, or "". */
std::string
firstWayDiff(const SetAssocArray &a, const SetAssocArray &b)
{
    const Geometry &g = a.geometry();
    for (std::uint32_t s = 0; s < g.sets; ++s) {
        for (unsigned w = 0; w < g.ways; ++w) {
            const auto x = a.wayState(s, w);
            const auto y = b.wayState(s, w);
            if (x.valid != y.valid || x.tag != y.tag ||
                x.shared != y.shared || x.instr != y.instr ||
                x.rank != y.rank || x.rrpv != y.rrpv)
                return "set " + std::to_string(s) + " way " +
                       std::to_string(w);
        }
    }
    return "";
}

} // namespace

// probeRun() against access(): one array probes random runs, its twin
// takes the same probes one access() at a time. Runs use the identity
// order, ascending subsets (the hierarchy's miss lists) and random
// orders with repeats; flushes and harvest-mask changes interleave.
// The fixed-way kernels (4, 8, 12 and 16 ways over power-of-two sets)
// and the run-time one (other way counts, 48 and 96 sets) both run,
// under every policy.
TEST(ProbeRun, MatchesAccessPerProbe)
{
    using hh::cache::ReplKind;
    const Geometry geoms[] = {
        {64, 4, 1}, {32, 8, 1}, {16, 12, 1}, {16, 16, 1}, {48, 16, 1},
        {96, 12, 1}, {16, 1, 1}, {8, 3, 1}, {8, 5, 1}, {4, 64, 1}};
    const ReplKind kinds[] = {ReplKind::LRU, ReplKind::HardHarvest,
                              ReplKind::CDP, ReplKind::RRIP,
                              ReplKind::Belady};
    for (const Geometry &g : geoms) {
        for (const ReplKind kind : kinds) {
            SCOPED_TRACE(std::to_string(g.sets) + " x " +
                         std::to_string(g.ways) + " policy " +
                         std::to_string(static_cast<int>(kind)));
            hh::sim::Rng rng(g.sets * 7919 + g.ways * 31 +
                             static_cast<unsigned>(kind));
            const Addr span = std::uint64_t{3} * g.sets * g.ways;
            std::vector<Addr> trace;
            for (int i = 0; i < 2000; ++i)
                trace.push_back(rng.uniformInt(span));
            const hh::cache::NextUseOracle oracle(trace);
            SetAssocArray run(g, runPolicy(kind, oracle));
            SetAssocArray one(g, runPolicy(kind, oracle));
            for (SetAssocArray *a : {&run, &one}) {
                a->setCandidateFraction(0.75);
                a->setHarvestWayCount(g.ways / 2);
            }
            for (int round = 0; round < 60; ++round) {
                const auto n =
                    static_cast<std::uint32_t>(rng.uniformInt(std::uint64_t{300}));
                std::vector<Addr> keys(n);
                std::vector<std::uint8_t> flags(n);
                for (std::uint32_t i = 0; i < n; ++i) {
                    keys[i] = rng.uniformInt(span);
                    flags[i] = static_cast<std::uint8_t>(
                        rng.uniformInt(std::uint64_t{4}));
                }
                std::vector<std::uint32_t> order;
                const auto shape = rng.uniformInt(std::uint64_t{3});
                for (std::uint32_t i = 0; i < n; ++i) {
                    if (shape == 0 || (shape == 1 && rng.bernoulli(0.5)))
                        order.push_back(i);
                    else if (shape == 2)
                        order.push_back(static_cast<std::uint32_t>(
                            rng.uniformInt(std::uint64_t{n})));
                }
                const WayMask allowed =
                    rng.bernoulli(0.3) ? ~WayMask{0}
                    : rng.bernoulli(0.5)
                        ? run.harvestWays() | (WayMask{1} << (g.ways - 1))
                        : rng.next() | 1;
                std::vector<std::uint32_t> got(order.size());
                const std::uint32_t missed = run.probeRun(
                    keys.data(), order.data(),
                    static_cast<std::uint32_t>(order.size()), flags.data(),
                    allowed, got.data());
                got.resize(missed);
                std::vector<std::uint32_t> want;
                for (const std::uint32_t i : order) {
                    if (!one.access(keys[i],
                                    flags[i] & SetAssocArray::kRunShared,
                                    allowed,
                                    flags[i] & SetAssocArray::kRunInstr)
                             .hit)
                        want.push_back(i);
                }
                ASSERT_EQ(got, want) << "round " << round;
                ASSERT_EQ(run.hits(), one.hits());
                ASSERT_EQ(run.misses(), one.misses());
                ASSERT_EQ(run.evictions(), one.evictions());
                ASSERT_EQ(firstWayDiff(run, one), "") << "round " << round;
                if (round % 7 == 3) {
                    const WayMask m = rng.next();
                    run.flushWays(m);
                    one.flushWays(m);
                } else if (round % 11 == 5) {
                    run.flushAll();
                    one.flushAll();
                } else if (round % 13 == 8) {
                    const auto h = static_cast<unsigned>(
                        rng.uniformInt(std::uint64_t{g.ways + 1}));
                    run.setHarvestWayCount(h);
                    one.setHarvestWayCount(h);
                }
            }
        }
    }
}

TEST(ProbeRun, ChecksTheAllowedMaskOncePerRun)
{
    auto a = makeArray(4, 4);
    // Three keys of set 1.
    const Addr keys[] = {1, 5, 9};
    const std::uint32_t all[] = {0, 1, 2};
    const std::uint8_t flags[] = {0, 1, 3};
    std::uint32_t misses[3];
    // Bits beyond the ways do not count; an empty run never probes.
    EXPECT_THROW(a.probeRun(keys, all, 3, flags, WayMask{1} << 4, misses),
                 std::logic_error);
    EXPECT_EQ(a.probeRun(keys, all, 0, flags, 0, misses), 0u);
    EXPECT_EQ(a.misses(), 0u);
    // Two allowed ways: key 9 evicts key 1, the LRU of the two.
    EXPECT_EQ(a.probeRun(keys, all, 3, flags, 0b0110, misses), 3u);
    EXPECT_EQ(a.evictions(), 1u);
    const std::uint32_t last_two[] = {1, 2};
    EXPECT_EQ(a.probeRun(keys, last_two, 2, flags, 0b0110, misses), 0u);
    EXPECT_EQ(a.probeRun(keys, all, 1, flags, 0b0110, misses), 1u);
    EXPECT_EQ(misses[0], 0u);
    EXPECT_EQ(a.hits(), 2u);
    EXPECT_EQ(a.misses(), 4u);
}

TEST(SetAssoc, FlushClearsMasksAndReadsAsZeroedWays)
{
    // A flush leaves an invalid way's tag and RRPV behind, yet the
    // way reads as a flushed one and its key no longer hits.
    SetAssocArray a(Geometry{4, 4, 1},
                    hh::cache::makePolicy(hh::cache::ReplKind::RRIP));
    for (Addr k = 1; k <= 16; ++k)
        a.access(k, true, ~WayMask{0}, k % 2 == 0);
    a.access(4, true); // hit: RRPV 0
    a.flushWays(0b0011);
    for (std::uint32_t s = 0; s < 4; ++s) {
        for (unsigned w = 0; w < 2; ++w) {
            const auto ws = a.wayState(s, w);
            EXPECT_FALSE(ws.valid);
            EXPECT_EQ(ws.tag, 0u);
            EXPECT_FALSE(ws.shared);
            EXPECT_FALSE(ws.instr);
            EXPECT_EQ(ws.rrpv, hh::cache::WayState{}.rrpv);
        }
    }
    EXPECT_EQ(a.validCount(), 8u);
    // The flushed keys miss and refill the invalid ways first.
    const std::uint64_t misses = a.misses();
    for (Addr k = 1; k <= 8; ++k)
        EXPECT_FALSE(a.access(k, false).hit) << k;
    EXPECT_EQ(a.misses(), misses + 8);
    EXPECT_EQ(a.evictions(), 0u);
    a.flushAll();
    EXPECT_EQ(a.validCount(), 0u);
    EXPECT_EQ(a.wayState(3, 3).tag, 0u);
}
