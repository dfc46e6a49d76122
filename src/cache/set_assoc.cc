#include "cache/set_assoc.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "sim/log.h"
#include "sim/prof.h"
#include "stats/registry.h"

namespace hh::cache {

SetAssocArray::SetAssocArray(const Geometry &geom,
                             std::unique_ptr<ReplacementPolicy> policy)
    : geom_(geom), policy_(std::move(policy)),
      tags_(static_cast<std::size_t>(geom.sets) * geom.ways),
      last_use_(static_cast<std::size_t>(geom.sets) * geom.ways),
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
    // Select the M least-recently-used allowed ways: repeatedly pick
    // the minimum lastUse, lowest way winning ties — exactly the
    // order a full selection sort would produce. The scan walks the
    // contiguous lastUse column and only the bits still remaining.
    const std::uint64_t *lu =
        &last_use_[static_cast<std::size_t>(set) * geom_.ways];
    WayMask mask = 0;
    unsigned chosen = 0;
    WayMask remaining = allowed;
    while (chosen < candidate_count_ && remaining) {
        unsigned best = 64;
        std::uint64_t best_use = ~0ULL;
        for (WayMask m = remaining; m; m &= m - 1) {
            const auto w =
                static_cast<unsigned>(std::countr_zero(m));
            if (lu[w] < best_use) {
                best_use = lu[w];
                best = w;
            }
        }
        if (best >= 64)
            break;
        mask |= WayMask{1} << best;
        remaining &= ~(WayMask{1} << best);
        ++chosen;
    }
    return mask;
}

AccessResult
SetAssocArray::access(Addr key, bool shared, WayMask allowed,
                      bool instr)
{
    HH_PROF_SCOPE("cache.array_access");
    allowed &= all_mask_;
    if (!allowed)
        hh::sim::panic("SetAssocArray::access: empty allowed mask");

    ++tick_;
    const std::uint32_t set = setIndex(key);
    const std::size_t si = static_cast<std::size_t>(set) * geom_.ways;
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
        last_use_[si + w] = tick_;
        policy_->touch(rrpv_[si + w]);
        ++hits_;
        return res;
    }

    ++misses_;
    SetContext ctx;
    ctx.tags = tags;
    ctx.lastUse = &last_use_[si];
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
    last_use_[si + victim] = tick_;
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
    std::fill(last_use_.begin(), last_use_.end(), std::uint64_t{0});
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
            last_use_[si + w] = 0;
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
    ws.lastUse = last_use_[i];
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
    for (std::uint32_t s = 0; s < geom_.sets; ++s) {
        const std::size_t si =
            static_cast<std::size_t>(s) * geom_.ways;
        WayMask valid = 0;
        WayMask shared = 0;
        WayMask instr = 0;
        // Saving writes each record's fields back unchanged; loading
        // fills the columns from the records read.
        for (unsigned w = 0; w < geom_.ways; ++w) {
            WayState ws = ar.saving() ? wayState(s, w) : WayState{};
            ar.io(ws);
            const WayMask bit = WayMask{1} << w;
            tags_[si + w] = ws.tag;
            last_use_[si + w] = ws.lastUse;
            rrpv_[si + w] = ws.rrpv;
            valid |= ws.valid ? bit : 0;
            shared |= ws.shared ? bit : 0;
            instr |= ws.instr ? bit : 0;
        }
        valid_bits_[s] = valid;
        shared_bits_[s] = shared;
        instr_bits_[s] = instr;
    }
    ar.io(harvest_mask_);
    ar.io(candidate_count_);
    ar.io(tick_);
    ar.io(hits_);
    ar.io(misses_);
    ar.io(evictions_);
}

} // namespace hh::cache
