/**
 * @file
 * Tests for the Belady offline-optimal policy and its oracle,
 * including the property that Belady dominates every online policy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "cache/repl_belady.h"
#include "cache/repl_hardharvest.h"
#include "cache/repl_lru.h"
#include "cache/repl_rrip.h"
#include "cache/set_assoc.h"
#include "sim/rng.h"

using namespace hh::cache;

TEST(NextUseOracle, PositionsAndNever)
{
    const std::vector<Addr> trace{5, 7, 5, 9, 7};
    NextUseOracle o(trace);
    EXPECT_EQ(o.nextUse(5, 0), 2u);
    EXPECT_EQ(o.nextUse(5, 2), NextUseOracle::kNever);
    EXPECT_EQ(o.nextUse(7, 0), 1u);
    EXPECT_EQ(o.nextUse(7, 1), 4u);
    EXPECT_EQ(o.nextUse(9, 0), 3u);
    EXPECT_EQ(o.nextUse(42, 0), NextUseOracle::kNever);
}

TEST(NextUseOracle, FirstUseFromMinusInfinity)
{
    const std::vector<Addr> trace{3};
    NextUseOracle o(trace);
    // nextUse strictly after position 0 does not exist.
    EXPECT_EQ(o.nextUse(3, 0), NextUseOracle::kNever);
}

namespace {

/** The per-key position lists the flat oracle replaced. */
class MapOracle
{
  public:
    explicit MapOracle(const std::vector<Addr> &trace)
    {
        for (std::uint64_t i = 0; i < trace.size(); ++i)
            positions_[trace[i]].push_back(i);
    }
    std::uint64_t
    nextUse(Addr key, std::uint64_t pos) const
    {
        const auto it = positions_.find(key);
        if (it == positions_.end())
            return NextUseOracle::kNever;
        const auto p = std::upper_bound(it->second.begin(),
                                        it->second.end(), pos);
        return p == it->second.end() ? NextUseOracle::kNever : *p;
    }

  private:
    std::unordered_map<Addr, std::vector<std::uint64_t>> positions_;
};

} // namespace

TEST(NextUseOracle, MatchesPerKeyPositionLists)
{
    hh::sim::Rng rng(5, 77);
    for (unsigned round = 0; round < 40; ++round) {
        // Few distinct keys make long repeat chains, many make keys
        // used once or never; every fourth trace uses keys up to the
        // largest Addr.
        const std::uint64_t distinct =
            1 + rng.uniformInt(round < 20 ? 8 : 400);
        const std::uint64_t len = rng.uniformInt(300);
        const Addr offset = round % 4 == 3 ? ~Addr{0} - distinct : 1000;
        std::vector<Addr> trace;
        for (std::uint64_t i = 0; i < len; ++i)
            trace.push_back(offset + rng.uniformInt(distinct));
        const NextUseOracle flat(trace);
        const MapOracle ref(trace);
        // Every key of the range and an absent one on each side, at
        // every position, the last one and past the end.
        for (Addr k = offset - 1;; ++k) {
            for (std::uint64_t pos = 0; pos <= len + 2; ++pos)
                ASSERT_EQ(flat.nextUse(k, pos), ref.nextUse(k, pos))
                    << "round " << round << " key " << k << " pos "
                    << pos;
            for (std::uint64_t pos : {NextUseOracle::kNever - 1,
                                      NextUseOracle::kNever})
                ASSERT_EQ(flat.nextUse(k, pos), ref.nextUse(k, pos));
            if (k == offset + distinct)
                break;
        }
    }
}

namespace {

/** Replay a trace through a single-set array and report hits. */
std::uint64_t
replayHits(const std::vector<Addr> &trace, unsigned ways,
           std::unique_ptr<ReplacementPolicy> policy)
{
    SetAssocArray arr(Geometry{1, ways, 1}, std::move(policy));
    std::uint64_t hits = 0;
    for (const Addr k : trace)
        hits += arr.access(k, true).hit ? 1 : 0;
    return hits;
}

} // namespace

TEST(Belady, ClassicExampleBeatsLru)
{
    // Textbook sequence where LRU struggles on a 3-way cache.
    const std::vector<Addr> trace{1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5};
    NextUseOracle oracle(trace);
    const auto belady =
        replayHits(trace, 3, std::make_unique<BeladyPolicy>(oracle));
    const auto lru =
        replayHits(trace, 3, std::make_unique<LruPolicy>());
    EXPECT_GT(belady, lru);
    // Belady on this sequence achieves 5 hits (7 faults on 12 refs).
    EXPECT_EQ(belady, 5u);
}

TEST(Belady, PositionAdvancesOncePerAccess)
{
    const std::vector<Addr> trace{1, 2, 1, 2};
    NextUseOracle oracle(trace);
    auto policy = std::make_unique<BeladyPolicy>(oracle);
    BeladyPolicy *raw = policy.get();
    SetAssocArray arr(Geometry{1, 2, 1}, std::move(policy));
    for (const Addr k : trace)
        arr.access(k, true);
    EXPECT_EQ(raw->position(), trace.size());
}

/** Property: Belady's hit count dominates every online policy. */
class BeladyOptimal : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(BeladyOptimal, DominatesOnlinePolicies)
{
    hh::sim::Rng rng(GetParam(), 1234);
    // Skewed random trace over 64 keys mapping into 4 sets.
    std::vector<Addr> trace;
    hh::sim::ZipfSampler zipf(64, 0.8);
    for (int i = 0; i < 4000; ++i)
        trace.push_back(zipf.sample(rng));

    auto replay = [&](std::unique_ptr<ReplacementPolicy> p) {
        SetAssocArray arr(Geometry{4, 4, 1}, std::move(p));
        std::uint64_t hits = 0;
        for (const Addr k : trace)
            hits += arr.access(k, true).hit ? 1 : 0;
        return hits;
    };

    NextUseOracle oracle(trace);
    const auto belady = replay(std::make_unique<BeladyPolicy>(oracle));
    EXPECT_GE(belady, replay(std::make_unique<LruPolicy>()));
    EXPECT_GE(belady, replay(std::make_unique<RripPolicy>()));
    EXPECT_GE(belady, replay(std::make_unique<HardHarvestPolicy>()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BeladyOptimal,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));
