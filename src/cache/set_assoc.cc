#include "cache/set_assoc.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "sim/log.h"
#include "sim/prof.h"
#include "stats/registry.h"

namespace hh::cache {

namespace {

/** Rank bytes per row: ways rounded up to 8. */
unsigned
rankBytes(unsigned ways)
{
    return (ways + 7) & ~7U;
}

/** 64-bit words per metadata row: masks, ranks and RRPVs. */
std::size_t
rowWords(unsigned ways)
{
    return (SetAssocArray::kRankOffset + rankBytes(ways) + ways + 7) / 8;
}

} // namespace

SetAssocArray::SetAssocArray(const Geometry &geom,
                             std::unique_ptr<ReplacementPolicy> policy)
    : geom_(geom), policy_(std::move(policy)),
      tags_(static_cast<std::size_t>(geom.sets) * geom.ways),
      candidate_count_(geom.ways), rank_stride_(rankBytes(geom.ways)),
      row_words_(rowWords(geom.ways))
{
    if (!policy_)
        hh::sim::panic("SetAssocArray: null policy");
    if (geom.ways == 0 || geom.ways > 64)
        hh::sim::fatal("SetAssocArray: ways must be in [1, 64], got ",
                       geom.ways);
    if (geom.sets == 0)
        hh::sim::fatal("SetAssocArray: sets must be > 0");
    all_mask_ = geom.ways == 64 ? ~WayMask{0}
                                : ((WayMask{1} << geom.ways) - 1);
    policy_hooks_ = policy_->hasAccessHooks();
    // Every set starts as the same row: no valid way, default RRPVs,
    // ranked by way index (the order of an all-invalid set, where the
    // lowest index counts as least recently used). Build it once and
    // copy it out in doubling blocks.
    rows_.resize(static_cast<std::size_t>(geom.sets) * row_words_);
    std::uint64_t *first = setRow(0);
    for (unsigned w = 0; w < geom.ways; ++w) {
        rowRanks(first)[w] = static_cast<std::uint8_t>(w);
        rowRrpv(first)[w] = WayState{}.rrpv;
    }
    for (std::size_t done = row_words_; done < rows_.size(); done *= 2)
        std::memcpy(rows_.data() + done, rows_.data(),
                    std::min(done, rows_.size() - done) *
                        sizeof(std::uint64_t));
}

void
SetAssocArray::setHarvestWays(WayMask mask)
{
    harvest_mask_ = mask & all_mask_;
}

void
SetAssocArray::setHarvestWayCount(unsigned n)
{
    n = std::min<unsigned>(n, geom_.ways);
    setHarvestWays(n == 64 ? ~WayMask{0} : ((WayMask{1} << n) - 1));
}

void
SetAssocArray::setCandidateFraction(double f)
{
    if (f <= 0.0 || f > 1.0)
        hh::sim::fatal("SetAssocArray: candidate fraction must be in "
                       "(0, 1], got ", f);
    candidate_count_ = std::max<unsigned>(
        1, static_cast<unsigned>(
               std::lround(f * static_cast<double>(geom_.ways))));
}

void
SetAssocArray::promote(std::uint8_t *rank, unsigned way)
{
    // Every way ranked above the promoted one drops by one, eight
    // ranks per 64-bit word. Ranks are below 64, so in each byte
    // (r | 0x80) - (old + 1) keeps bit 7 exactly when r > old and
    // never borrows from the next byte; the zero padding past the
    // last way never exceeds old and stays zero.
    constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
    constexpr std::uint64_t kHigh = 0x8080808080808080ULL;
    // (Members are read once, up front: the byte stores below may
    // alias them as far as the compiler knows.)
    const unsigned stride = rank_stride_;
    const unsigned top = geom_.ways - 1;
    const unsigned old = rank[way];
    const std::uint64_t above = (old + 1) * kOnes;
    for (unsigned w = 0; w < stride; w += 8) {
        std::uint64_t r;
        std::memcpy(&r, rank + w, sizeof r);
        r -= (((r | kHigh) - above) & kHigh) >> 7;
        std::memcpy(rank + w, &r, sizeof r);
    }
    // The promoted way rises past the top - old ways that were above
    // it, to the top.
    rank[way] = static_cast<std::uint8_t>(top);
}

AccessResult
SetAssocArray::access(Addr key, bool shared, WayMask allowed,
                      bool instr)
{
    HH_PROF_SCOPE("cache.array_access");
    allowed &= all_mask_;
    if (!allowed)
        hh::sim::panic("SetAssocArray::access: empty allowed mask");

    const std::uint32_t set = setIndex(key);
    const std::size_t si = static_cast<std::size_t>(set) * geom_.ways;
    std::uint64_t *row = setRow(set);
    std::uint8_t *rank = rowRanks(row);
    std::uint8_t *rrpv = rowRrpv(row);
    AccessResult res;

    // Match the whole tag row, then keep the valid ways: at most one
    // valid way holds the key.
    const WayMask valid = row[kValid];
    const Addr *tags = &tags_[si];
    const WayMask match = detail::matchTags(tags, geom_.ways, key) & valid;
    if (match) {
        const auto w = static_cast<unsigned>(std::countr_zero(match));
        res.hit = true;
        res.way = w;
        promote(rank, w);
        if (policy_hooks_)
            policy_->touch(rrpv[w]);
        ++hits_;
        return res;
    }

    ++misses_;
    SetContext ctx;
    ctx.tags = tags;
    ctx.rank = rank;
    ctx.rrpv = rrpv;
    ctx.ways = geom_.ways;
    ctx.validMask = valid;
    ctx.sharedMask = row[kShared];
    ctx.instrMask = row[kInstr];
    ctx.harvestMask = harvest_mask_;
    ctx.allowedMask = allowed;
    ctx.candidates = candidate_count_;
    ctx.setIndex = set;

    const unsigned victim = policy_->victim(ctx, shared);
    if (victim >= geom_.ways)
        hh::sim::panic("SetAssocArray: policy returned way ", victim,
                       " of ", geom_.ways);
    const WayMask bit = WayMask{1} << victim;
    if (valid & bit) {
        ++evictions_;
        res.evictedValid = true;
        res.victimShared = (row[kShared] & bit) != 0;
    }
    tags_[si + victim] = key;
    promote(rank, victim);
    if (policy_hooks_)
        policy_->fill(rrpv[victim]);
    row[kValid] |= bit;
    row[kShared] = shared ? (row[kShared] | bit) : (row[kShared] & ~bit);
    row[kInstr] = instr ? (row[kInstr] | bit) : (row[kInstr] & ~bit);
    res.way = victim;
    return res;
}

bool
SetAssocArray::probe(Addr key) const
{
    const std::uint32_t set = setIndex(key);
    return (detail::matchTags(
                &tags_[static_cast<std::size_t>(set) * geom_.ways],
                geom_.ways, key) &
            setRow(set)[kValid]) != 0;
}

void
SetAssocArray::flushAll()
{
    std::fill(tags_.begin(), tags_.end(), Addr{0});
    for (std::uint32_t s = 0; s < geom_.sets; ++s) {
        std::uint64_t *row = setRow(s);
        row[kValid] = row[kShared] = row[kInstr] = 0;
        std::memset(rowRrpv(row), WayState{}.rrpv, geom_.ways);
    }
}

void
SetAssocArray::flushWays(WayMask mask)
{
    mask &= all_mask_;
    for (std::uint32_t s = 0; s < geom_.sets; ++s) {
        const std::size_t si =
            static_cast<std::size_t>(s) * geom_.ways;
        std::uint64_t *row = setRow(s);
        std::uint8_t *rrpv = rowRrpv(row);
        for (WayMask m = mask; m; m &= m - 1) {
            const auto w =
                static_cast<unsigned>(std::countr_zero(m));
            tags_[si + w] = 0;
            rrpv[w] = WayState{}.rrpv;
        }
        row[kValid] &= ~mask;
        row[kShared] &= ~mask;
        row[kInstr] &= ~mask;
    }
}

double
SetAssocArray::hitRate() const
{
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0
                      : static_cast<double>(hits_) /
                            static_cast<double>(total);
}

void
SetAssocArray::resetStats()
{
    hits_ = misses_ = evictions_ = 0;
}

void
SetAssocArray::registerMetrics(hh::stats::MetricRegistry &reg,
                               const std::string &prefix)
{
    reg.registerCounter(prefix + ".hits", hits_);
    reg.registerCounter(prefix + ".misses", misses_);
    reg.registerCounter(prefix + ".evictions", evictions_);
}

std::uint64_t
SetAssocArray::validCount() const
{
    return validCountInWays(all_mask_);
}

std::uint64_t
SetAssocArray::validCountInWays(WayMask mask) const
{
    mask &= all_mask_;
    std::uint64_t n = 0;
    for (std::uint32_t s = 0; s < geom_.sets; ++s)
        n += static_cast<unsigned>(
            std::popcount(setRow(s)[kValid] & mask));
    return n;
}

WayState
SetAssocArray::wayState(std::uint32_t set, unsigned way) const
{
    if (set >= geom_.sets || way >= geom_.ways)
        hh::sim::panic("SetAssocArray::wayState: out of range");
    const std::uint64_t *row = setRow(set);
    const WayMask bit = WayMask{1} << way;
    WayState ws;
    ws.valid = (row[kValid] & bit) != 0;
    ws.tag = tags_[static_cast<std::size_t>(set) * geom_.ways + way];
    ws.shared = (row[kShared] & bit) != 0;
    ws.instr = (row[kInstr] & bit) != 0;
    ws.rank = rowRanks(row)[way];
    ws.rrpv = rowRrpv(row)[way];
    return ws;
}

void
SetAssocArray::serialize(hh::snap::Archive &ar)
{
    // The count and records match the encoding of a
    // std::vector<WayState>, so the bytes are those of the 'HHCP'
    // format.
    std::uint64_t count = tags_.size();
    ar.io(count);
    if (!ar.ok())
        return;
    if (count != tags_.size()) {
        ar.fail("snapshot cache way count " + std::to_string(count) +
                " does not match the array's " +
                std::to_string(tags_.size()) + " (sets x ways)");
        return;
    }
    if (ar.saving()) {
        for (std::uint32_t s = 0; s < geom_.sets; ++s) {
            for (unsigned w = 0; w < geom_.ways; ++w) {
                WayState ws = wayState(s, w);
                ar.io(ws);
            }
        }
    } else {
        loadContents(ar);
        if (!ar.ok())
            return;
    }
    ar.io(harvest_mask_);
    ar.io(candidate_count_);
    ar.io(hits_);
    ar.io(misses_);
    ar.io(evictions_);
}

void
SetAssocArray::loadContents(hh::snap::Archive &ar)
{
    decltype(tags_) tags(tags_.size());
    decltype(rows_) rows(rows_.size());
    for (std::uint32_t s = 0; s < geom_.sets; ++s) {
        const std::size_t si =
            static_cast<std::size_t>(s) * geom_.ways;
        std::uint64_t *row =
            &rows[static_cast<std::size_t>(s) * row_words_];
        WayMask ranks_seen = 0;
        for (unsigned w = 0; w < geom_.ways; ++w) {
            WayState ws;
            ar.io(ws);
            const WayMask bit = WayMask{1} << w;
            tags[si + w] = ws.tag;
            rowRanks(row)[w] = ws.rank;
            rowRrpv(row)[w] = ws.rrpv;
            row[kValid] |= ws.valid ? bit : 0;
            row[kShared] |= ws.shared ? bit : 0;
            row[kInstr] |= ws.instr ? bit : 0;
            if (ws.rank < geom_.ways)
                ranks_seen |= WayMask{1} << ws.rank;
        }
        if (!ar.ok())
            return;
        // `ways` ranks below `ways` cover every value only when none
        // repeats, so a full mask means a permutation.
        if (ranks_seen != all_mask_) {
            ar.fail("snapshot cache set " + std::to_string(s) +
                    " ranks are not a permutation of [0, " +
                    std::to_string(geom_.ways) + ")");
            return;
        }
    }
    tags_.swap(tags);
    rows_.swap(rows);
}

} // namespace hh::cache
