#include "cache/set_assoc.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <type_traits>
#include <typeinfo>
#include <vector>

#include "cache/repl_cdp.h"
#include "cache/repl_hardharvest.h"
#include "cache/repl_lru.h"
#include "sim/log.h"
#include "sim/prof.h"
#include "stats/registry.h"

namespace hh::cache {

namespace {

/** Rank bytes per row: ways rounded up to 8. */
constexpr unsigned
rankBytes(unsigned ways)
{
    return (ways + 7) & ~7U;
}

/** Probes a run looks ahead when it prefetches a set. */
constexpr std::uint32_t kRunPrefetchDistance = 8;

/**
 * Make @p way the most recently used of a set whose @p stride rank
 * bytes start at @p rank; @p top is the set's highest rank.
 */
inline void
promote(std::uint8_t *rank, unsigned way, unsigned stride, unsigned top)
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

/**
 * What a probe reads of its array, copied into locals once per call:
 * a probe's rank stores are byte stores, which may alias any member
 * as far as the compiler knows, so fields read through `this` would
 * be reloaded after each one. With a fixed way count W (sets then a
 * power of two) the geometry is a set of constants instead.
 */
template <unsigned W>
struct ProbeView
{
    Addr *tags;
    std::uint64_t *rows;
    std::uint32_t sets;
    unsigned runtimeWays;
    WayMask harvest;
    unsigned candidates;

    unsigned ways() const { return W ? W : runtimeWays; }
    unsigned stride() const { return rankBytes(ways()); }
    std::size_t words() const { return SetAssocArray::rowWords(ways()); }

    std::uint32_t
    setIndex(Addr key) const
    {
        if (W || (sets & (sets - 1)) == 0)
            return static_cast<std::uint32_t>(key & (sets - 1));
        return static_cast<std::uint32_t>(key % sets);
    }
    Addr *
    setTags(std::uint32_t set) const
    {
        return tags + static_cast<std::size_t>(set) * ways();
    }
    std::uint64_t *
    setRow(std::uint32_t set) const
    {
        return rows + static_cast<std::size_t>(set) * words();
    }
};

/**
 * The probe body: look up @p key and, on a miss, fill it into the
 * victim P picks among @p allowed (non-empty, within the ways).
 * Counts nothing; the entry points do.
 */
template <unsigned W, typename P>
[[gnu::always_inline]] inline AccessResult
probeBody(const ProbeView<W> &v, ReplacementPolicy &policy, bool hooks,
          Addr key, bool shared, WayMask allowed, bool instr)
{
    constexpr unsigned kValid = SetAssocArray::kValid;
    constexpr unsigned kShared = SetAssocArray::kShared;
    constexpr unsigned kInstr = SetAssocArray::kInstr;
    constexpr bool kVirtual = std::is_same_v<P, ReplacementPolicy>;
    const unsigned ways = v.ways();
    const std::uint32_t set = v.setIndex(key);
    Addr *tags = v.setTags(set);
    std::uint64_t *row = v.setRow(set);
    std::uint8_t *rank = reinterpret_cast<std::uint8_t *>(row) +
                         SetAssocArray::kRankOffset;
    std::uint8_t *rrpv = rank + v.stride();
    AccessResult res;

    // Match the whole tag row, then keep the valid ways: at most one
    // valid way holds the key.
    const WayMask valid = row[kValid];
    const WayMask match = detail::matchTags(tags, ways, key) & valid;
    if (match) {
        const auto w = static_cast<unsigned>(std::countr_zero(match));
        res.hit = true;
        res.way = w;
        promote(rank, w, v.stride(), ways - 1);
        if (kVirtual && hooks)
            policy.touch(rrpv[w]);
        return res;
    }

    SetContext ctx;
    ctx.tags = tags;
    ctx.rank = rank;
    ctx.rrpv = rrpv;
    ctx.ways = ways;
    ctx.validMask = valid;
    ctx.sharedMask = row[kShared];
    ctx.instrMask = row[kInstr];
    ctx.harvestMask = v.harvest;
    ctx.allowedMask = allowed;
    ctx.candidates = v.candidates;
    ctx.setIndex = set;

    unsigned victim;
    if constexpr (kVirtual) {
        // Any policy may be plugged in, so its answer is checked
        // before it indexes the set. The inline victims always
        // return an allowed way, and the allowed mask is non-empty.
        victim = policy.victim(ctx, shared);
        if (victim >= ways)
            hh::sim::panic("SetAssocArray: policy returned way ", victim,
                           " of ", ways);
    } else {
        victim = P::choose(ctx, shared);
    }
    const WayMask bit = WayMask{1} << victim;
    if (valid & bit) {
        res.evictedValid = true;
        res.victimShared = (row[kShared] & bit) != 0;
    }
    tags[victim] = key;
    promote(rank, victim, v.stride(), ways - 1);
    if (kVirtual && hooks)
        policy.fill(rrpv[victim]);
    row[kValid] |= bit;
    row[kShared] = shared ? (row[kShared] | bit) : (row[kShared] & ~bit);
    row[kInstr] = instr ? (row[kInstr] | bit) : (row[kInstr] & ~bit);
    res.way = victim;
    return res;
}

} // namespace

template <unsigned W, typename P>
AccessResult
SetAssocArray::accessKernel(Addr key, bool shared, WayMask allowed,
                            bool instr)
{
    const ProbeView<W> v{tags_,      rows_,         geom_.sets,
                         geom_.ways, harvest_mask_, candidate_count_};
    const AccessResult res = probeBody<W, P>(v, *policy_, policy_hooks_,
                                             key, shared, allowed, instr);
    if (res.hit) {
        ++hits_;
    } else {
        ++misses_;
        evictions_ += res.evictedValid;
    }
    return res;
}

template <unsigned W, typename P>
std::uint32_t
SetAssocArray::runKernel(const Addr *keys, const std::uint32_t *order,
                         std::uint32_t n, const std::uint8_t *flags,
                         WayMask allowed, std::uint32_t *misses)
{
    const ProbeView<W> v{tags_,      rows_,         geom_.sets,
                         geom_.ways, harvest_mask_, candidate_count_};
    ReplacementPolicy &policy = *policy_;
    const bool hooks = policy_hooks_;
    std::uint32_t missed = 0;
    std::uint64_t evicted = 0;
    for (std::uint32_t k = 0; k < n; ++k) {
        if (k + kRunPrefetchDistance < n) {
            const std::uint32_t ahead =
                v.setIndex(keys[order[k + kRunPrefetchDistance]]);
            prefetchBytes(v.setTags(ahead), v.ways() * sizeof(Addr));
            prefetchBytes(v.setRow(ahead),
                          v.words() * sizeof(std::uint64_t));
        }
        const std::uint32_t i = order[k];
        const AccessResult res = probeBody<W, P>(
            v, policy, hooks, keys[i], (flags[i] & kRunShared) != 0,
            allowed, (flags[i] & kRunInstr) != 0);
        if (!res.hit) {
            misses[missed++] = i;
            evicted += res.evictedValid;
        }
    }
    hits_ += n - missed;
    misses_ += missed;
    evictions_ += evicted;
    return missed;
}

template <unsigned W, typename P>
void
SetAssocArray::bindKernels()
{
    access_kernel_ = &SetAssocArray::accessKernel<W, P>;
    run_kernel_ = &SetAssocArray::runKernel<W, P>;
}

SetAssocArray::SetAssocArray(const Geometry &geom,
                             std::unique_ptr<ReplacementPolicy> policy,
                             ColumnArena *arena)
    : geom_(geom), policy_(std::move(policy)),
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

    // The Table 1 way counts over power-of-two sets get a fixed-way
    // kernel; anything else reads its geometry at run time. Only the
    // exact LRU, HardHarvest and CDP classes get their victim inlined.
    const auto bindWays = [&]<typename P>() {
        const bool pow2 = (geom.sets & (geom.sets - 1)) == 0;
        switch (pow2 ? geom.ways : 0) {
          case 4: bindKernels<4, P>(); break;
          case 8: bindKernels<8, P>(); break;
          case 12: bindKernels<12, P>(); break;
          case 16: bindKernels<16, P>(); break;
          default: bindKernels<0, P>(); break;
        }
    };
    const std::type_info &kind = typeid(*policy_);
    if (kind == typeid(LruPolicy))
        bindWays.template operator()<LruPolicy>();
    else if (kind == typeid(HardHarvestPolicy))
        bindWays.template operator()<HardHarvestPolicy>();
    else if (kind == typeid(CdpPolicy))
        bindWays.template operator()<CdpPolicy>();
    else
        bindWays.template operator()<ReplacementPolicy>();

    // Each take is the exact column; the arena pads it to a host line
    // (ColumnArena::bytesFor counts the padding).
    if (!arena) {
        own_arena_ = std::make_unique<ColumnArena>(
            ColumnArena::bytesFor(geom).total());
        arena = own_arena_.get();
    }
    const std::size_t words = rowCount();
    tags_ = static_cast<Addr *>(arena->take(tagCount() * sizeof(Addr)));
    rows_ = static_cast<std::uint64_t *>(
        arena->take(words * sizeof(std::uint64_t)));

    // Write both columns now, so no first-touch fault lands in a timed
    // run. Tags start zeroed. Every set starts as the same row: no
    // valid way, default RRPVs, ranked by way index (the order of an
    // all-invalid set, where the lowest index counts as least recently
    // used). Build it once and copy it out in doubling blocks.
    std::memset(tags_, 0, tagCount() * sizeof(Addr));
    std::uint64_t *first = setRow(0);
    std::memset(first, 0, row_words_ * sizeof(std::uint64_t));
    for (unsigned w = 0; w < geom.ways; ++w) {
        rowRanks(first)[w] = static_cast<std::uint8_t>(w);
        rowRrpv(first)[w] = WayState{}.rrpv;
    }
    for (std::size_t done = row_words_; done < words; done *= 2)
        std::memcpy(rows_ + done, rows_,
                    std::min(done, words - done) * sizeof(std::uint64_t));
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

AccessResult
SetAssocArray::access(Addr key, bool shared, WayMask allowed,
                      bool instr)
{
    HH_PROF_SCOPE("cache.array_access");
    allowed &= all_mask_;
    if (!allowed)
        hh::sim::panic("SetAssocArray::access: empty allowed mask");
    return (this->*access_kernel_)(key, shared, allowed, instr);
}

std::uint32_t
SetAssocArray::probeRun(const Addr *keys, const std::uint32_t *order,
                        std::uint32_t n, const std::uint8_t *flags,
                        WayMask allowed, std::uint32_t *misses)
{
    if (n == 0)
        return 0;
    HH_PROF_SCOPE_N(prof, "cache.array_access", n);
    allowed &= all_mask_;
    if (!allowed)
        hh::sim::panic("SetAssocArray::probeRun: empty allowed mask");
    return (this->*run_kernel_)(keys, order, n, flags, allowed, misses);
}

bool
SetAssocArray::probe(Addr key) const
{
    const std::uint32_t set = setIndex(key);
    return (detail::matchTags(
                tags_ + static_cast<std::size_t>(set) * geom_.ways,
                geom_.ways, key) &
            setRow(set)[kValid]) != 0;
}

void
SetAssocArray::flushAll()
{
    flushWays(all_mask_);
}

void
SetAssocArray::flushWays(WayMask mask)
{
    // Only the masks change: an invalid way's tag, rank and RRPV are
    // never read (every victim takes an invalid allowed way before it
    // compares anything, and matches are ANDed with the valid mask),
    // and wayState() reports an invalid way as a flushed one. Rows
    // with nothing to clear are left untouched, so their host lines
    // stay clean.
    mask &= all_mask_;
    for (std::uint32_t s = 0; s < geom_.sets; ++s) {
        std::uint64_t *row = setRow(s);
        if (((row[kValid] | row[kShared] | row[kInstr]) & mask) == 0)
            continue;
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
    ws.rank = rowRanks(row)[way];
    // An invalid way reads as a flushed one: tag 0, neither shared
    // nor instr, the default RRPV. Flushes clear only the masks, so
    // its stored tag and RRPV are stale.
    if ((row[kValid] & bit) == 0)
        return ws;
    ws.valid = true;
    ws.tag = tags_[static_cast<std::size_t>(set) * geom_.ways + way];
    ws.shared = (row[kShared] & bit) != 0;
    ws.instr = (row[kInstr] & bit) != 0;
    ws.rrpv = rowRrpv(row)[way];
    return ws;
}

void
SetAssocArray::serialize(hh::snap::Archive &ar)
{
    // The count and records match the encoding of a
    // std::vector<WayState>, so the bytes are those of the 'HHCP'
    // format.
    std::uint64_t count = tagCount();
    ar.io(count);
    if (!ar.ok())
        return;
    if (count != tagCount()) {
        ar.fail("snapshot cache way count " + std::to_string(count) +
                " does not match the array's " +
                std::to_string(tagCount()) + " (sets x ways)");
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
    std::vector<Addr> tags(tagCount());
    std::vector<std::uint64_t> rows(rowCount());
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
    std::memcpy(tags_, tags.data(), tags.size() * sizeof(Addr));
    std::memcpy(rows_, rows.data(), rows.size() * sizeof(std::uint64_t));
}

} // namespace hh::cache
