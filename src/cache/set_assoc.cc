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

/** Bytes per set in the rank column: ways rounded up to 8. */
unsigned
rankStride(unsigned ways)
{
    return (ways + 7) & ~7U;
}

} // namespace

SetAssocArray::SetAssocArray(const Geometry &geom,
                             std::unique_ptr<ReplacementPolicy> policy)
    : geom_(geom), policy_(std::move(policy)),
      tags_(static_cast<std::size_t>(geom.sets) * geom.ways),
      rank_(static_cast<std::size_t>(geom.sets) * rankStride(geom.ways)),
      rrpv_(static_cast<std::size_t>(geom.sets) * geom.ways,
            WayState{}.rrpv),
      valid_bits_(geom.sets), shared_bits_(geom.sets),
      instr_bits_(geom.sets), candidate_count_(geom.ways)
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
    policy_uses_candidates_ = policy_->usesCandidates();
    rank_stride_ = rankStride(geom.ways);
    // Rank by way index: the order of an all-invalid set, where the
    // lowest index counts as least recently used.
    for (std::uint32_t s = 0; s < geom.sets; ++s)
        for (unsigned w = 0; w < geom.ways; ++w)
            setRanks(s)[w] = static_cast<std::uint8_t>(w);
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

std::uint32_t
SetAssocArray::setIndex(Addr key) const
{
    // Power-of-two fast path; otherwise modulo.
    if ((geom_.sets & (geom_.sets - 1)) == 0)
        return static_cast<std::uint32_t>(key & (geom_.sets - 1));
    return static_cast<std::uint32_t>(key % geom_.sets);
}

WayMask
SetAssocArray::candidateMask(std::uint32_t set, WayMask allowed) const
{
    if (candidate_count_ >= geom_.ways)
        return allowed;
    // Invert the set's rank permutation, then walk it from the least
    // recently used way up, taking the first M allowed ways.
    const std::uint8_t *rank = setRanks(set);
    std::uint8_t by_rank[64];
    for (unsigned w = 0; w < geom_.ways; ++w)
        by_rank[rank[w]] = static_cast<std::uint8_t>(w);
    WayMask mask = 0;
    unsigned chosen = 0;
    for (unsigned r = 0; r < geom_.ways && chosen < candidate_count_;
         ++r) {
        const WayMask bit = WayMask{1} << by_rank[r];
        if (allowed & bit) {
            mask |= bit;
            ++chosen;
        }
    }
    return mask;
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
    const unsigned old = rank[way];
    const std::uint64_t above = (old + 1) * kOnes;
    for (unsigned w = 0; w < rank_stride_; w += 8) {
        std::uint64_t r;
        std::memcpy(&r, rank + w, sizeof r);
        r -= (((r | kHigh) - above) & kHigh) >> 7;
        std::memcpy(rank + w, &r, sizeof r);
    }
    // The promoted way rises past the ways - 1 - old ways that were
    // above it, to the top.
    rank[way] = static_cast<std::uint8_t>(rank[way] + geom_.ways - 1 - old);
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
    std::uint8_t *rank = setRanks(set);
    AccessResult res;

    // Tag search over the contiguous column, valid ways only.
    const WayMask valid = valid_bits_[set];
    const Addr *tags = &tags_[si];
    for (WayMask m = valid; m; m &= m - 1) {
        const auto w = static_cast<unsigned>(std::countr_zero(m));
        if (tags[w] != key)
            continue;
        res.hit = true;
        res.way = w;
        promote(rank, w);
        policy_->touch(rrpv_[si + w]);
        ++hits_;
        return res;
    }

    ++misses_;
    SetContext ctx;
    ctx.tags = tags;
    ctx.rank = rank;
    ctx.rrpv = &rrpv_[si];
    ctx.ways = geom_.ways;
    ctx.validMask = valid;
    ctx.sharedMask = shared_bits_[set];
    ctx.instrMask = instr_bits_[set];
    ctx.harvestMask = harvest_mask_;
    ctx.allowedMask = allowed;
    ctx.setIndex = set;
    // The M-LRU selection only matters to policies that read it
    // (HardHarvest/CDP), and those consult it only when every
    // allowed way is valid — an invalid way short-circuits victim
    // selection before candidates are looked at.
    ctx.candidateMask =
        (policy_uses_candidates_ && (allowed & ~valid) == 0)
            ? candidateMask(set, allowed)
            : allowed;

    const unsigned victim = policy_->victim(ctx, shared);
    if (victim >= geom_.ways)
        hh::sim::panic("SetAssocArray: policy returned way ", victim,
                       " of ", geom_.ways);
    const WayMask bit = WayMask{1} << victim;
    if (valid & bit) {
        ++evictions_;
        res.evictedValid = true;
        res.victimShared = (shared_bits_[set] & bit) != 0;
    }
    tags_[si + victim] = key;
    promote(rank, victim);
    policy_->fill(rrpv_[si + victim]);
    valid_bits_[set] |= bit;
    shared_bits_[set] = shared ? (shared_bits_[set] | bit)
                               : (shared_bits_[set] & ~bit);
    instr_bits_[set] = instr ? (instr_bits_[set] | bit)
                             : (instr_bits_[set] & ~bit);
    res.way = victim;
    return res;
}

bool
SetAssocArray::probe(Addr key) const
{
    const std::uint32_t set = setIndex(key);
    const std::size_t si = static_cast<std::size_t>(set) * geom_.ways;
    const Addr *tags = &tags_[si];
    for (WayMask m = valid_bits_[set]; m; m &= m - 1) {
        const auto w = static_cast<unsigned>(std::countr_zero(m));
        if (tags[w] == key)
            return true;
    }
    return false;
}

void
SetAssocArray::flushAll()
{
    std::fill(tags_.begin(), tags_.end(), Addr{0});
    std::fill(rrpv_.begin(), rrpv_.end(), WayState{}.rrpv);
    std::fill(valid_bits_.begin(), valid_bits_.end(), WayMask{0});
    std::fill(shared_bits_.begin(), shared_bits_.end(), WayMask{0});
    std::fill(instr_bits_.begin(), instr_bits_.end(), WayMask{0});
}

void
SetAssocArray::flushWays(WayMask mask)
{
    mask &= all_mask_;
    for (std::uint32_t s = 0; s < geom_.sets; ++s) {
        const std::size_t si =
            static_cast<std::size_t>(s) * geom_.ways;
        for (WayMask m = mask; m; m &= m - 1) {
            const auto w =
                static_cast<unsigned>(std::countr_zero(m));
            tags_[si + w] = 0;
            rrpv_[si + w] = WayState{}.rrpv;
        }
        valid_bits_[s] &= ~mask;
        shared_bits_[s] &= ~mask;
        instr_bits_[s] &= ~mask;
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
    for (const WayMask valid : valid_bits_)
        n += static_cast<unsigned>(std::popcount(valid & mask));
    return n;
}

WayState
SetAssocArray::wayState(std::uint32_t set, unsigned way) const
{
    if (set >= geom_.sets || way >= geom_.ways)
        hh::sim::panic("SetAssocArray::wayState: out of range");
    const std::size_t i = static_cast<std::size_t>(set) * geom_.ways + way;
    const WayMask bit = WayMask{1} << way;
    WayState ws;
    ws.valid = (valid_bits_[set] & bit) != 0;
    ws.tag = tags_[i];
    ws.shared = (shared_bits_[set] & bit) != 0;
    ws.instr = (instr_bits_[set] & bit) != 0;
    ws.rank = setRanks(set)[way];
    ws.rrpv = rrpv_[i];
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
    std::vector<Addr> tags(tags_.size());
    std::vector<std::uint8_t> rank(rank_.size());
    std::vector<std::uint8_t> rrpv(rrpv_.size());
    std::vector<WayMask> valid(geom_.sets);
    std::vector<WayMask> shared(geom_.sets);
    std::vector<WayMask> instr(geom_.sets);
    for (std::uint32_t s = 0; s < geom_.sets; ++s) {
        const std::size_t si =
            static_cast<std::size_t>(s) * geom_.ways;
        const std::size_t ri =
            static_cast<std::size_t>(s) * rank_stride_;
        WayMask ranks_seen = 0;
        for (unsigned w = 0; w < geom_.ways; ++w) {
            WayState ws;
            ar.io(ws);
            const WayMask bit = WayMask{1} << w;
            tags[si + w] = ws.tag;
            rank[ri + w] = ws.rank;
            rrpv[si + w] = ws.rrpv;
            valid[s] |= ws.valid ? bit : 0;
            shared[s] |= ws.shared ? bit : 0;
            instr[s] |= ws.instr ? bit : 0;
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
    rank_.swap(rank);
    rrpv_.swap(rrpv);
    valid_bits_.swap(valid);
    shared_bits_.swap(shared);
    instr_bits_.swap(instr);
}

} // namespace hh::cache
