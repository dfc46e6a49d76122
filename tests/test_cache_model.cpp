/**
 * @file
 * Reference-model fuzz of SetAssocArray, plus golden bytes for the
 * per-way snapshot record.
 *
 * RefCache below is a deliberately naive model of the array: every
 * set is a plain vector of {valid, tag, shared, instr, lastUse, rrpv}
 * records, recency a global 64-bit access stamp, and the victim rules
 * are written straight from their definitions (paper Algorithm 1 for
 * HardHarvest, textbook LRU, the max-RRPV pick of the SRRIP model,
 * CDP's instruction protection), with no bitmaps. Seeded op mixes run
 * through the model and the real array side by side, over every
 * geometry in cache/config.h, and the two must agree after every op:
 * hit/miss, victim way, evicted tag and the full contents of every
 * touched set, where the array's per-set recency ranks must order the
 * valid ways as the model's stamps do.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cache/config.h"
#include "cache/replacement.h"
#include "cache/set_assoc.h"
#include "sim/rng.h"
#include "snapshot/archive.h"

using namespace hh::cache;

namespace {

/** One way of the naive model; recency is a global access stamp. */
struct RefWay
{
    bool valid = false;
    Addr tag = 0;
    bool shared = false;
    bool instr = false;
    std::uint64_t lastUse = 0;
    std::uint8_t rrpv = 3;
};

/** The naive model: one vector of RefWay records per set. */
class RefCache
{
  public:
    struct Outcome
    {
        bool hit = false;
        unsigned way = 0;
        bool evictedValid = false;
        Addr evictedTag = 0;
        bool evictedShared = false;
    };

    RefCache(const Geometry &g, ReplKind kind)
        : g_(g), kind_(kind),
          sets_(g.sets, std::vector<RefWay>(g.ways)), m_(g.ways)
    {}

    Outcome
    access(Addr key, bool shared, WayMask allowed, bool instr)
    {
        ++tick_;
        std::vector<RefWay> &set = sets_[key % g_.sets];
        Outcome out;
        for (unsigned w = 0; w < g_.ways; ++w) {
            if (set[w].valid && set[w].tag == key) {
                set[w].lastUse = tick_;
                if (kind_ == ReplKind::RRIP)
                    set[w].rrpv = 0;
                out.hit = true;
                out.way = w;
                ++hits_;
                return out;
            }
        }
        ++misses_;
        out.way = victim(set, shared, allowed);
        RefWay &slot = set[out.way];
        out.evictedValid = slot.valid;
        out.evictedTag = slot.tag;
        out.evictedShared = slot.shared;
        if (slot.valid)
            ++evictions_;
        slot = RefWay{};
        slot.valid = true;
        slot.tag = key;
        slot.shared = shared;
        slot.instr = instr;
        slot.lastUse = tick_;
        if (kind_ == ReplKind::RRIP)
            slot.rrpv = 2;
        return out;
    }

    void
    flushWays(WayMask mask)
    {
        for (auto &set : sets_)
            for (unsigned w = 0; w < g_.ways; ++w)
                if (in(mask, w))
                    set[w] = RefWay{};
    }

    void flushAll() { flushWays(~WayMask{0}); }

    void
    setHarvestWays(WayMask mask)
    {
        harvest_ = 0;
        for (unsigned w = 0; w < g_.ways; ++w)
            if (in(mask, w))
                harvest_ |= WayMask{1} << w;
    }

    void
    setCandidateFraction(double f)
    {
        m_ = std::max(1L, std::lround(f * g_.ways));
    }

    WayMask harvest() const { return harvest_; }
    const RefWay &way(std::uint32_t s, unsigned w) const
    {
        return sets_[s][w];
    }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }

    /** Valid entries in @p sets; keys never map anywhere else. */
    std::uint64_t
    validCount(const std::vector<std::uint32_t> &sets) const
    {
        std::uint64_t n = 0;
        for (std::uint32_t s : sets)
            for (const RefWay &ws : sets_[s])
                n += ws.valid ? 1 : 0;
        return n;
    }

  private:
    static bool in(WayMask m, unsigned w) { return (m >> w) & 1; }

    /** Oldest way of @p pool; lowest index wins ties. */
    static unsigned
    lruOf(const std::vector<RefWay> &set,
          const std::vector<unsigned> &pool)
    {
        unsigned best = pool.front();
        for (unsigned w : pool)
            if (set[w].lastUse < set[best].lastUse)
                best = w;
        return best;
    }

    unsigned
    victim(const std::vector<RefWay> &set, bool shared,
           WayMask allowed) const
    {
        const bool steered = kind_ == ReplKind::HardHarvest ||
                             kind_ == ReplKind::CDP;
        std::vector<unsigned> ways;
        std::vector<unsigned> invalid;
        for (unsigned w = 0; w < g_.ways; ++w) {
            if (!in(allowed, w))
                continue;
            ways.push_back(w);
            if (!set[w].valid)
                invalid.push_back(w);
        }
        // An empty allowed slot evicts nothing and is always taken;
        // the steered policies prefer one in the incoming entry's
        // region (shared -> non-harvest, private -> harvest).
        if (!invalid.empty()) {
            if (steered)
                for (unsigned w : invalid)
                    if (in(harvest_, w) != shared)
                        return w;
            return invalid.front();
        }
        if (kind_ == ReplKind::LRU)
            return lruOf(set, ways);
        if (kind_ == ReplKind::RRIP) {
            unsigned best = ways.front();
            for (unsigned w : ways)
                if (set[w].rrpv > set[best].rrpv ||
                    (set[w].rrpv == set[best].rrpv &&
                     set[w].lastUse < set[best].lastUse))
                    best = w;
            return best;
        }
        // Algorithm 1 (and CDP): only the M least-recently-used
        // allowed ways are eviction candidates. Among them, evict an
        // unprotected entry in the incoming entry's region first,
        // then one in the other region, then plain LRU. HardHarvest
        // protects shared entries, CDP instruction entries.
        std::vector<unsigned> cand = ways;
        std::stable_sort(cand.begin(), cand.end(),
                         [&](unsigned a, unsigned b) {
                             return set[a].lastUse < set[b].lastUse;
                         });
        cand.resize(std::min<std::size_t>(cand.size(), m_));
        for (bool harvestRegion : {!shared, shared}) {
            std::vector<unsigned> pool;
            for (unsigned w : cand) {
                const bool prot = kind_ == ReplKind::HardHarvest
                                      ? set[w].shared
                                      : set[w].instr;
                if (!prot && in(harvest_, w) == harvestRegion)
                    pool.push_back(w);
            }
            if (!pool.empty())
                return lruOf(set, pool);
        }
        return lruOf(set, cand);
    }

    Geometry g_;
    ReplKind kind_;
    std::vector<std::vector<RefWay>> sets_;
    WayMask harvest_ = 0;
    std::size_t m_;
    std::uint64_t tick_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

template <typename Way>
std::string
describe(const Way &w, std::uint64_t recency)
{
    std::ostringstream os;
    os << "{valid=" << w.valid << " tag=" << w.tag
       << " shared=" << w.shared << " instr=" << w.instr
       << " recency=" << recency << " rrpv=" << int{w.rrpv} << "}";
    return os.str();
}

/**
 * First difference between model and array, or "" when none. The
 * array's ranks must be a permutation of [0, ways) that orders every
 * pair of valid ways as the model's lastUse stamps do.
 */
std::string
diffContents(const RefCache &ref, const SetAssocArray &arr,
             const std::vector<std::uint32_t> &sets)
{
    const unsigned ways = arr.geometry().ways;
    for (std::uint32_t s : sets) {
        std::vector<WayState> got;
        std::vector<bool> rank_seen(ways);
        for (unsigned w = 0; w < ways; ++w) {
            const WayState a = arr.wayState(s, w);
            const RefWay &r = ref.way(s, w);
            got.push_back(a);
            if (a.rank >= ways || rank_seen[a.rank])
                return "set " + std::to_string(s) + " way " +
                       std::to_string(w) + ": rank " +
                       std::to_string(a.rank) + " repeats or >= ways";
            rank_seen[a.rank] = true;
            if (a.valid != r.valid || a.tag != r.tag ||
                a.shared != r.shared || a.instr != r.instr ||
                a.rrpv != r.rrpv) {
                return "set " + std::to_string(s) + " way " +
                       std::to_string(w) + ": array " +
                       describe(a, a.rank) + " model " +
                       describe(r, r.lastUse);
            }
        }
        for (unsigned x = 0; x < ways; ++x) {
            for (unsigned y = 0; y < ways; ++y) {
                const RefWay &rx = ref.way(s, x);
                const RefWay &ry = ref.way(s, y);
                if (rx.valid && ry.valid &&
                    (got[x].rank < got[y].rank) !=
                        (rx.lastUse < ry.lastUse))
                    return "set " + std::to_string(s) + " ways " +
                           std::to_string(x) + "/" + std::to_string(y) +
                           ": array ranks " +
                           std::to_string(got[x].rank) + "/" +
                           std::to_string(got[y].rank) +
                           " order unlike model stamps " +
                           std::to_string(rx.lastUse) + "/" +
                           std::to_string(ry.lastUse);
            }
        }
    }
    if (arr.validCount() != ref.validCount(sets))
        return "validCount " + std::to_string(arr.validCount()) +
               " vs model " + std::to_string(ref.validCount(sets));
    if (arr.hits() != ref.hits() || arr.misses() != ref.misses() ||
        arr.evictions() != ref.evictions())
        return "hit/miss/eviction counters differ";
    if (arr.harvestWays() != ref.harvest())
        return "harvest mask differs";
    return "";
}

std::vector<std::uint8_t>
save(SetAssocArray &arr)
{
    auto ar = hh::snap::Archive::forSave();
    arr.serialize(ar);
    return ar.take();
}

struct ModelCase
{
    std::string label;
    Geometry geom;
    ReplKind kind;
};

void
PrintTo(const ModelCase &c, std::ostream *os)
{
    *os << c.label;
}

std::vector<ModelCase>
modelCases()
{
    const std::pair<const char *, Geometry> geoms[] = {
        {"L1D", kL1D},   {"L1I", kL1I},       {"L2", kL2},
        {"L3", kL3PerCore}, {"L1TLB", kL1Tlb}, {"L2TLB", kL2Tlb},
    };
    const ReplKind kinds[] = {ReplKind::LRU, ReplKind::RRIP,
                              ReplKind::HardHarvest, ReplKind::CDP};
    std::vector<ModelCase> out;
    for (const auto &[gname, g] : geoms)
        for (ReplKind k : kinds)
            out.push_back({std::string(gname) + "_" + replKindName(k),
                           g, k});
    return out;
}

} // namespace

class CacheModelFuzz : public ::testing::TestWithParam<ModelCase>
{};

TEST_P(CacheModelFuzz, MatchesReferenceModel)
{
    const ModelCase &c = GetParam();
    const Geometry g = c.geom;
    const WayMask all = g.ways == 64 ? ~WayMask{0}
                                     : (WayMask{1} << g.ways) - 1;
    // Keys land in four sets (first, second, middle, last) so sets
    // fill up and evict; tags span three times the associativity.
    std::vector<std::uint32_t> sets = {0, 1 % g.sets, g.sets / 2,
                                       g.sets - 1};
    std::sort(sets.begin(), sets.end());
    sets.erase(std::unique(sets.begin(), sets.end()), sets.end());

    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        hh::sim::Rng rng(seed, 41);
        auto arr =
            std::make_unique<SetAssocArray>(g, makePolicy(c.kind));
        RefCache ref(g, c.kind);
        unsigned lease_bonus = 0;
        unsigned base_ways = g.ways / 2;

        for (int step = 0; step < 4000; ++step) {
            const std::uint64_t op =
                rng.uniformInt(std::uint64_t{100});
            std::string what;
            if (op < 82) {
                const std::uint32_t set =
                    sets[rng.uniformInt(std::uint64_t{sets.size()})];
                const Addr key =
                    set + g.sets * rng.uniformInt(std::uint64_t{
                                       3 * std::uint64_t{g.ways}});
                const bool shared = rng.bernoulli(0.6);
                const bool instr = rng.bernoulli(0.2);
                // Primary fills may use every way, harvest-mode fills
                // only the harvest region, and a few use an arbitrary
                // mask (phantom bits beyond the set included).
                WayMask allowed = ~WayMask{0};
                const std::uint64_t a =
                    rng.uniformInt(std::uint64_t{10});
                if (a < 2 && ref.harvest())
                    allowed = ref.harvest();
                else if (a == 2)
                    allowed =
                        rng.next() | (WayMask{1} << (set % g.ways));
                std::vector<WayState> before;
                for (unsigned w = 0; w < g.ways; ++w)
                    before.push_back(arr->wayState(set, w));

                const RefCache::Outcome r =
                    ref.access(key, shared, allowed, instr);
                const AccessResult got =
                    arr->access(key, shared, allowed, instr);
                what = "access key " + std::to_string(key);
                ASSERT_EQ(got.hit, r.hit) << what << " step " << step;
                ASSERT_EQ(got.way, r.way) << what << " step " << step;
                if (!r.hit) {
                    ASSERT_EQ(got.evictedValid, r.evictedValid)
                        << what << " step " << step;
                    ASSERT_EQ(before[got.way].tag, r.evictedTag)
                        << what << " step " << step;
                    if (r.evictedValid) {
                        ASSERT_EQ(got.victimShared, r.evictedShared)
                            << what << " step " << step;
                    }
                }
            } else if (op < 86) {
                const WayMask m = op == 82 ? arr->harvestWays()
                                           : rng.next() & all;
                arr->flushWays(m);
                ref.flushWays(m);
                what = "flushWays";
            } else if (op < 87) {
                arr->flushAll();
                ref.flushAll();
                what = "flushAll";
            } else if (op < 93) {
                // A partition move as CoreHierarchy::repartitionArray
                // performs it: a new base region or L2 lease bonus,
                // clamped to leave one primary way, departing ways
                // flushed.
                if (rng.bernoulli(0.5))
                    base_ways = static_cast<unsigned>(
                        rng.uniformInt(std::uint64_t{g.ways}));
                else
                    lease_bonus = static_cast<unsigned>(
                        rng.uniformInt(std::uint64_t{3}));
                const WayMask old = arr->harvestWays();
                const unsigned n = std::min(base_ways + lease_bonus,
                                            g.ways - 1);
                arr->setHarvestWayCount(n);
                ref.setHarvestWays(n >= 64 ? ~WayMask{0}
                                           : (WayMask{1} << n) - 1);
                const WayMask leaving = old & ~arr->harvestWays();
                arr->flushWays(leaving);
                ref.flushWays(leaving);
                what = "repartition";
            } else if (op < 95) {
                const WayMask m = rng.next();
                arr->setHarvestWays(m);
                ref.setHarvestWays(m);
                what = "setHarvestWays";
            } else if (op < 98) {
                const double fracs[] = {1.0, 0.75, 0.5, 0.25};
                const double f =
                    fracs[rng.uniformInt(std::uint64_t{4})];
                arr->setCandidateFraction(f);
                ref.setCandidateFraction(f);
                what = "setCandidateFraction";
            } else {
                // Save/load round trip: continue on a fresh array
                // restored from the bytes, which must re-save equal.
                const auto bytes = save(*arr);
                auto fresh = std::make_unique<SetAssocArray>(
                    g, makePolicy(c.kind));
                auto ar = hh::snap::Archive::forLoad(bytes);
                fresh->serialize(ar);
                ASSERT_TRUE(ar.ok()) << ar.error();
                ASSERT_TRUE(ar.atEnd());
                ASSERT_EQ(save(*fresh), bytes) << "step " << step;
                arr = std::move(fresh);
                what = "round trip";
            }
            const std::string diff = diffContents(ref, *arr, sets);
            ASSERT_EQ(diff, "") << "after " << what << ", seed " << seed
                                << " step " << step;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheModelFuzz, ::testing::ValuesIn(modelCases()),
    [](const ::testing::TestParamInfo<ModelCase> &info) {
        return info.param.label;
    });

// ------------------------------------------ golden per-way record bytes

namespace {

/**
 * A 2-set x 4-way RRIP array holding shared, private and instruction
 * entries, with every RRPV state (0 after a hit, 2 after a fill, 3
 * when empty) and one eviction.
 */
std::unique_ptr<SetAssocArray>
goldenArray()
{
    auto a = std::make_unique<SetAssocArray>(Geometry{2, 4, 1},
                                             makePolicy(ReplKind::RRIP));
    a->setHarvestWayCount(2);
    a->setCandidateFraction(0.75);
    a->access(0, true);                      // set 0 way 0, shared
    a->access(2, false);                     // set 0 way 1, private
    a->access(4, true, ~WayMask{0}, true);   // set 0 way 2, instr
    a->access(0, true);                      // hit: rrpv 0
    a->access(1, false, 0b1100);             // set 1 way 2
    a->access(3, true, 0b1100, true);        // set 1 way 3, instr
    a->access(5, false, 0b1100);             // evicts key 1 (LRU tie)
    a->access(3, true);                      // hit: rrpv 0
    return a;
}

// The per-way records are {valid u8, tag u64, shared u8, instr u8,
// rank u8, rrpv u8}, little-endian, set-major. Decoding set 0 way 2:
// valid 1, tag 0x04, shared 1, instr 1, rank 2 (second most recent of
// the set, after way 0's hit), rrpv 2 (filled, never hit). The empty
// ways keep the rank they started with or were left at.
const std::vector<std::uint8_t> kGoldenBytes = {
    // way count = 8
    0x08, 0, 0, 0, 0, 0, 0, 0,
    // set 0
    1, 0x00, 0, 0, 0, 0, 0, 0, 0, 1, 0, 3, 0,
    1, 0x02, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2,
    1, 0x04, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 2,
    0, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3,
    // set 1
    0, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3,
    0, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 3,
    1, 0x05, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2,
    1, 0x03, 0, 0, 0, 0, 0, 0, 0, 1, 1, 3, 0,
    // harvest mask 0b0011, M = 3, hits 2, misses 6, evictions 1
    0x03, 0, 0, 0, 0, 0, 0, 0,
    0x03, 0, 0, 0,
    0x02, 0, 0, 0, 0, 0, 0, 0,
    0x06, 0, 0, 0, 0, 0, 0, 0,
    0x01, 0, 0, 0, 0, 0, 0, 0,
};

/** Byte offset of the rank field of (set, way) in kGoldenBytes. */
std::size_t
goldenRankOffset(unsigned set, unsigned way)
{
    return 8 + (set * 4 + way) * 13 + 11;
}

} // namespace

TEST(CacheGoldenBytes, RripArrayMatchesCapturedBytes)
{
    auto a = goldenArray();
    EXPECT_EQ(save(*a), kGoldenBytes);
}

TEST(CacheGoldenBytes, RripArrayRoundTrips)
{
    auto b = std::make_unique<SetAssocArray>(Geometry{2, 4, 1},
                                             makePolicy(ReplKind::RRIP));
    auto ar = hh::snap::Archive::forLoad(kGoldenBytes);
    b->serialize(ar);
    ASSERT_TRUE(ar.ok()) << ar.error();
    EXPECT_TRUE(ar.atEnd());
    EXPECT_EQ(save(*b), kGoldenBytes);
    EXPECT_EQ(b->validCount(), 5u);
    EXPECT_TRUE(b->wayState(0, 2).instr);
    EXPECT_EQ(b->wayState(1, 3).rrpv, 0);
    // The restored array keeps replacing like the original.
    auto a = goldenArray();
    for (Addr k : {6, 7, 9, 0, 11, 13}) {
        const AccessResult x = a->access(k, k % 3 == 0);
        const AccessResult y = b->access(k, k % 3 == 0);
        EXPECT_EQ(x.hit, y.hit);
        EXPECT_EQ(x.way, y.way);
    }
    EXPECT_EQ(save(*a), save(*b));
}

// ---------------------------------------------- snapshot way-count guard

class CacheSnapshotLoad : public ::testing::TestWithParam<std::uint8_t>
{};

TEST_P(CacheSnapshotLoad, WayCountMismatchFailsAndLeavesArrayUntouched)
{
    // The golden stream with its way count rewritten: a short count
    // used to resize the way storage and read past its end.
    std::vector<std::uint8_t> bytes = kGoldenBytes;
    bytes[0] = GetParam();
    auto a = goldenArray();
    a->access(6, true);
    const auto before = save(*a);

    auto ar = hh::snap::Archive::forLoad(bytes);
    a->serialize(ar);
    EXPECT_FALSE(ar.ok());
    EXPECT_NE(ar.error().find("way count"), std::string::npos)
        << ar.error();
    EXPECT_EQ(save(*a), before);
}

INSTANTIATE_TEST_SUITE_P(Counts, CacheSnapshotLoad,
                         ::testing::Values(0, 1, 7, 9));

namespace {

// A set whose ranks are not a permutation of [0, ways) cannot have
// come from an array; loading it fails and leaves the array as it was.
void
expectRankLoadFails(const std::vector<std::uint8_t> &bytes)
{
    auto a = goldenArray();
    a->access(6, true);
    const auto before = save(*a);

    auto ar = hh::snap::Archive::forLoad(bytes);
    a->serialize(ar);
    EXPECT_FALSE(ar.ok());
    EXPECT_NE(ar.error().find("rank"), std::string::npos) << ar.error();
    EXPECT_EQ(save(*a), before);
}

} // namespace

TEST(CacheSnapshotLoad, DuplicateRankFailsAndLeavesArrayUntouched)
{
    // Set 1 way 1 takes way 0's rank 0; rank 1 goes missing.
    std::vector<std::uint8_t> bytes = kGoldenBytes;
    bytes[goldenRankOffset(1, 1)] = 0;
    expectRankLoadFails(bytes);
}

TEST(CacheSnapshotLoad, RankOutOfRangeFailsAndLeavesArrayUntouched)
{
    // Set 1 way 3's rank 3 becomes 4, one past the last of 4 ways.
    std::vector<std::uint8_t> bytes = kGoldenBytes;
    bytes[goldenRankOffset(1, 3)] = 4;
    expectRankLoadFails(bytes);
}
