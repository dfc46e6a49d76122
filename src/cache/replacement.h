/**
 * @file
 * Replacement-policy interface shared by caches and TLBs.
 *
 * A policy sees one set at a time through SetContext: the set's
 * tags, ranks and RRPVs and its valid/shared/instr bitmaps, which ways
 * are harvest ways (HarvestMask), which ways the current requester
 * may use, and — for the HardHarvest and CDP policies — the
 * eviction-candidate count M (victims among valid ways come from the
 * M least-recently-used allowed ways, paper Section 4.2.3).
 */

#ifndef HH_CACHE_REPLACEMENT_H
#define HH_CACHE_REPLACEMENT_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>

#include "cache/config.h"
#include "snapshot/archive.h"

namespace hh::cache {

/**
 * One way's state, as the snapshot record and the inspection value.
 * The array does not store these: it keeps a tag column and one
 * metadata row per set (see SetAssocArray) and assembles a WayState
 * on demand.
 */
struct WayState
{
    bool valid = false;
    Addr tag = 0;
    bool shared = false;        //!< Paper's per-entry Shared bit.
    bool instr = false;         //!< Instruction-side entry (CDP).
    std::uint8_t rank = 0;      //!< Recency rank in the set (SetContext).
    std::uint8_t rrpv = 3;      //!< RRIP re-reference prediction value.

    /**
     * The 13-byte per-way snapshot record. It holds all replacement
     * metadata the online policies (LRU/RRIP/CDP/HardHarvest)
     * consult, so the way records checkpoint the policy state too.
     */
    void
    serialize(hh::snap::Archive &ar)
    {
        ar.io(valid);
        ar.io(tag);
        ar.io(shared);
        ar.io(instr);
        ar.io(rank);
        ar.io(rrpv);
    }
};

/**
 * Everything a policy may inspect when choosing a victim in one set:
 * the set's per-way arrays, its per-set bitmaps and the region masks.
 *
 * Recency is a per-set rank: the ranks of a set's ways are a
 * permutation of [0, ways), higher meaning more recently used. Only
 * the order among valid ways carries meaning; every policy takes an
 * invalid allowed way before it compares ranks.
 *
 * Mask bits at or above `ways` carry no meaning; each policy clips
 * its masks with wayMask() before using them.
 */
struct SetContext
{
    const Addr *tags = nullptr;         //!< Per-way tags.
    const std::uint8_t *rank = nullptr; //!< Per-way recency ranks.
    const std::uint8_t *rrpv = nullptr; //!< Per-way RRIP values.
    unsigned ways = 0;                  //!< Ways in the set.

    WayMask validMask = 0;     //!< Ways holding a valid entry.
    WayMask sharedMask = 0;    //!< Ways whose valid entry is Shared.
    WayMask instrMask = 0;     //!< Ways whose valid entry is I-side.
    WayMask harvestMask = 0;   //!< Ways in the harvest region.
    WayMask allowedMask = 0;   //!< Ways the requester may fill.
    /**
     * M: valid victims come from the M least-recently-used allowed
     * ways (HardHarvest, CDP). 64 or more places no restriction.
     */
    unsigned candidates = 64;
    std::uint64_t setIndex = 0; //!< Which set (Belady oracle key).

    /** Mask covering the set's ways. */
    WayMask
    wayMask() const
    {
        return ways >= 64 ? ~WayMask{0} : (WayMask{1} << ways) - 1;
    }
};

/**
 * Abstract victim-selection and metadata-update policy.
 */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /**
     * Choose the way that should receive an incoming entry.
     *
     * Invalid allowed ways are always preferred; the array guarantees
     * that ctx.allowedMask is non-zero.
     *
     * @param ctx            The set being filled.
     * @param incoming_shared Shared bit of the incoming entry.
     * @return Way index in [0, ways).
     */
    virtual unsigned victim(const SetContext &ctx,
                            bool incoming_shared) = 0;

    /**
     * Metadata update on a hit. The array has already promoted the
     * way's rank; policies only keep their own state here. Called
     * only when hasAccessHooks().
     */
    virtual void touch(std::uint8_t &rrpv) { (void)rrpv; }

    /**
     * Metadata update on a fill (after victim selection). Called only
     * when hasAccessHooks().
     */
    virtual void fill(std::uint8_t &rrpv) { (void)rrpv; }

    /** Human-readable policy name. */
    virtual const char *name() const = 0;

    /**
     * False when touch() and fill() do nothing, so the array may skip
     * both calls (LRU, HardHarvest, CDP: the array's ranks are all
     * their state). The array reads it once, at construction.
     */
    virtual bool hasAccessHooks() const { return true; }
};

/**
 * Create a policy instance by kind.
 *
 * @param kind Selector; Belady instances must instead be built
 *             directly with their oracle (see repl_belady.h) and
 *             requesting it here is a usage error.
 */
std::unique_ptr<ReplacementPolicy> makePolicy(ReplKind kind);

namespace detail {

/**
 * The least-recently-used (lowest-ranked) way among @p mask; 64 when
 * @p mask is empty.
 */
inline unsigned
lruWay(const std::uint8_t *rank, WayMask mask)
{
    // The minimum of (rank << 8) | way: ranks are distinct, so it is
    // the lowest-ranked way, found without a data-dependent branch.
    // The start value sorts above every real key and carries 64.
    unsigned best = 0xFF00U | 64U;
    for (WayMask m = mask; m; m &= m - 1) {
        const auto w =
            static_cast<unsigned>(std::countr_zero(m));
        best = std::min(best, (unsigned{rank[w]} << 8) | w);
    }
    return best & 0xFFU;
}

/**
 * Set bits in @p x. std::popcount compiles to a libgcc call on
 * baseline x86-64, which has no popcnt instruction.
 */
constexpr unsigned
popcount64(std::uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return static_cast<unsigned>((x * 0x0101010101010101ULL) >> 56);
}

/**
 * Victim choice shared by HardHarvest (Algorithm 1) and CDP: an
 * invalid way in the incoming entry's region, then any invalid way,
 * then the LRU unprotected candidate in that region, then in the
 * other region, then the LRU allowed way. Shared entries go to the
 * non-harvest region, private ones to the harvest region. The
 * candidates are the ctx.candidates least-recently-used allowed ways;
 * the LRU allowed way is always one of them.
 *
 * Inline, so the array's probe loop calls it directly; the policies'
 * victim() overrides forward to it.
 *
 * @param evictable Ways whose entries the policy does not protect.
 * @return The victim way; ctx.ways or more when the allowed mask is
 *         empty.
 */
inline unsigned
steeredVictim(const SetContext &ctx, bool incoming_shared,
              WayMask evictable)
{
    const WayMask allowed = ctx.allowedMask & ctx.wayMask();
    const WayMask harvest = allowed & ctx.harvestMask;
    const WayMask non_harvest = allowed & ~ctx.harvestMask;
    const WayMask first_region = incoming_shared ? non_harvest : harvest;

    // Invalid slots, preferred region first. These are exempt from
    // the eviction-candidate restriction (nothing is evicted when
    // filling an empty slot).
    const WayMask inv = allowed & ~ctx.validMask;
    if (inv) {
        const WayMask preferred = inv & first_region;
        return static_cast<unsigned>(
            std::countr_zero(preferred ? preferred : inv));
    }

    // Algorithm 1 as one priority multiplexer (Section 4.2.4): the
    // victim is the LRU unprotected way of the first region, else of
    // the second, as long as it is among the M least recently used
    // allowed ways; else the LRU allowed way, which always is. A way
    // is among them exactly when fewer than M allowed ways rank below
    // it, and that set is closed downward in rank, so a region holds a
    // candidate exactly when its LRU way is one. With no more than M
    // allowed ways every way is a candidate and no ranks are counted.
    const unsigned m = ctx.candidates;
    const bool restricted = popcount64(allowed) > m;
    std::uint64_t ranks = 0; // bit r: an allowed way has rank r
    if (restricted) {
        for (WayMask a = allowed; a; a &= a - 1)
            ranks |= std::uint64_t{1} << ctx.rank[std::countr_zero(a)];
    }
    const auto candidate = [&](unsigned way) {
        const std::uint64_t below =
            (std::uint64_t{1} << ctx.rank[way]) - 1;
        return !restricted || popcount64(ranks & below) < m;
    };
    unsigned v = lruWay(ctx.rank, evictable & first_region & allowed);
    if (v >= ctx.ways || !candidate(v)) {
        v = lruWay(ctx.rank, evictable & ~first_region & allowed);
        if (v >= ctx.ways || !candidate(v))
            v = lruWay(ctx.rank, allowed);
    }
    return v;
}

/**
 * @p v when it is a way of @p ctx; else the panic of a policy handed
 * an empty allowed mask, naming @p who.
 */
unsigned checkedVictim(const SetContext &ctx, unsigned v,
                       const char *who);

} // namespace detail

} // namespace hh::cache

#endif // HH_CACHE_REPLACEMENT_H
