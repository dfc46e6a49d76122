/**
 * @file
 * Generic set-associative array used for every cache level and TLB.
 *
 * The array adds the two HardHarvest hardware bits on top of a
 * conventional tag array:
 *  - a per-entry Shared bit (copied from the page table, §4.2.2), and
 *  - a per-way Harvest bit (the HarvestMask region, §4.2.1),
 * plus selective flushing of only the harvest ways and the
 * eviction-candidate count M used by the HardHarvest and CDP
 * policies.
 *
 * Keys are opaque 64-bit values (line or page identifiers); callers
 * must embed the VM/address-space id in the key so distinct VMs never
 * alias.
 */

#ifndef HH_CACHE_SET_ASSOC_H
#define HH_CACHE_SET_ASSOC_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "cache/column_arena.h"
#include "cache/config.h"
#include "cache/replacement.h"

namespace hh::stats {
class MetricRegistry;
}

namespace hh::cache {

namespace detail {

/**
 * The ways among tags[0, ways) that hold @p key, as a way mask. Reads
 * no tag past tags[ways - 1]. With SSE2 (every x86-64 host) it
 * compares two 64-bit tags per 128-bit load, four ways per step, and
 * takes an odd last way alone; elsewhere it is the plain loop.
 */
inline WayMask
matchTags(const Addr *tags, unsigned ways, Addr key)
{
    WayMask match = 0;
    unsigned w = 0;
#if defined(__SSE2__)
    // SSE2 has no 64-bit equality: compare the 32-bit halves, then
    // AND each half's result with its partner's.
    const __m128i k = _mm_set1_epi64x(static_cast<long long>(key));
    const auto eq64 = [&](unsigned at) {
        const __m128i eq32 = _mm_cmpeq_epi32(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(tags + at)),
            k);
        return _mm_and_si128(
            eq32, _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1)));
    };
    // Four ways per step: packing two pairs' 64-bit results to 32-bit
    // lanes puts way i's result in lane i for one movemask.
    for (; w + 4 <= ways; w += 4) {
        const __m128i four = _mm_packs_epi32(eq64(w), eq64(w + 2));
        match |= static_cast<WayMask>(
                     _mm_movemask_ps(_mm_castsi128_ps(four)))
                 << w;
    }
    if (w + 2 <= ways) {
        match |= static_cast<WayMask>(
                     _mm_movemask_pd(_mm_castsi128_pd(eq64(w))))
                 << w;
        w += 2;
    }
#endif
    for (; w < ways; ++w)
        match |= WayMask{tags[w] == key} << w;
    return match;
}

} // namespace detail

/** Outcome of one array access. */
struct AccessResult
{
    bool hit = false;
    bool evictedValid = false; //!< A valid entry was displaced.
    bool victimShared = false; //!< ...and it was a shared entry.
    unsigned way = 0;          //!< Way hit or filled.
};

/**
 * A set-associative tag array with pluggable replacement.
 */
class SetAssocArray
{
  public:
    /**
     * @param geom   Structure geometry (ways must be <= 64).
     * @param policy Replacement policy instance (owned).
     * @param arena  Host memory for the columns, which take
     *               ColumnArena::bytesFor(geom) of it; it must outlive
     *               the array. Null gives the array a private arena
     *               sized for itself.
     */
    SetAssocArray(const Geometry &geom,
                  std::unique_ptr<ReplacementPolicy> policy,
                  ColumnArena *arena = nullptr);

    /**
     * Designate the harvest region.
     *
     * @param mask Way bitmask; bits >= ways are ignored.
     */
    void setHarvestWays(WayMask mask);

    /** Designate the lowest @p n ways as the harvest region. */
    void setHarvestWayCount(unsigned n);

    WayMask harvestWays() const { return harvest_mask_; }

    /**
     * Restrict eviction candidates to the given fraction of ways
     * (the paper's M parameter; default 1.0 considers all ways).
     */
    void setCandidateFraction(double f);

    /**
     * Look up @p key; on a miss, fill it, evicting per the policy.
     *
     * @param key     Structure-level key (line id or page id).
     * @param shared  Shared bit of the entry being accessed.
     * @param allowed Ways the requester may *fill*; lookups always
     *                scan all ways. Defaults to every way.
     * @param instr   Instruction-side entry (used by CDP).
     */
    AccessResult access(Addr key, bool shared,
                        WayMask allowed = ~WayMask{0},
                        bool instr = false);

    /** Look up without filling. */
    bool probe(Addr key) const;

    /** @name Probe runs @{ */
    /** Flag bits of a probe run's accesses. */
    static constexpr std::uint8_t kRunShared = 1; //!< access()'s shared
    static constexpr std::uint8_t kRunInstr = 2;  //!< access()'s instr

    /**
     * Probe a run of keys in order, as that many access() calls
     * would: for k in [0, n), access(keys[i], flags[i] & kRunShared,
     * allowed, flags[i] & kRunInstr) with i = order[k]. Each miss
     * appends its i to @p misses, which must have room for n.
     *
     * The run prefetches the set of the key a fixed distance ahead,
     * and checks @p allowed once, not per probe.
     *
     * @return The number of misses.
     */
    std::uint32_t probeRun(const Addr *keys, const std::uint32_t *order,
                           std::uint32_t n, const std::uint8_t *flags,
                           WayMask allowed, std::uint32_t *misses);
    /** @} */

    /** Invalidate every entry. */
    void flushAll();

    /** Invalidate entries in the given ways of every set. */
    void flushWays(WayMask mask);

    /** @name Statistics @{ */
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }
    double hitRate() const;
    void resetStats();

    /**
     * Register hit/miss/eviction counters under
     * "<prefix>.hits" etc. The array must outlive the registry's
     * users (snapshots read through the registered callbacks).
     */
    void registerMetrics(hh::stats::MetricRegistry &reg,
                         const std::string &prefix);
    /** @} */

    const Geometry &geometry() const { return geom_; }
    ReplacementPolicy &policy() { return *policy_; }

    /** Number of valid entries across the array (tests). */
    std::uint64_t validCount() const;

    /**
     * Number of valid entries within the given ways (partition-move
     * tests, cache-lease flush accounting).
     */
    std::uint64_t validCountInWays(WayMask mask) const;

    /**
     * Visit every valid entry in the given ways as fn(set, way, tag),
     * walking only the valid bitmaps and the tag column.
     */
    template <typename Fn>
    void
    forEachValidInWays(WayMask mask, Fn &&fn) const
    {
        mask &= all_mask_;
        if (!mask)
            return;
        for (std::uint32_t s = 0; s < geom_.sets; ++s) {
            const std::size_t si =
                static_cast<std::size_t>(s) * geom_.ways;
            for (WayMask m = setRow(s)[kValid] & mask; m; m &= m - 1) {
                const auto w = static_cast<unsigned>(
                    std::countr_zero(m));
                fn(s, w, tags_[si + w]);
            }
        }
    }

    /**
     * One way's state, assembled from the tag column and the set's
     * row (tests, examples, snapshot records). An invalid way reads
     * as tag 0, not shared, not instr, with the default RRPV,
     * whatever stale tag and RRPV it still stores.
     */
    WayState wayState(std::uint32_t set, unsigned way) const;

    /** Mask covering all ways of this array. */
    WayMask allWays() const { return all_mask_; }

    /** @name Set layout (tests, inspection) @{ */
    /** The tags of @p set, one per way. */
    std::span<const Addr>
    tagRow(std::uint32_t set) const
    {
        return {tags_ + static_cast<std::size_t>(set) * geom_.ways,
                geom_.ways};
    }

    /** Word indices of the valid, shared and instr masks in a row. */
    static constexpr unsigned kValid = 0;
    static constexpr unsigned kShared = 1;
    static constexpr unsigned kInstr = 2;

    /** Byte offset of the rank bytes in a row. */
    static constexpr std::size_t kRankOffset = 3 * sizeof(WayMask);

    /** Rank bytes per row: ways rounded up to 8, zero padding. */
    unsigned rankStride() const { return rank_stride_; }

    /** 64-bit words per metadata row of a @p ways-way set. */
    static constexpr std::size_t
    rowWords(unsigned ways)
    {
        return (kRankOffset + ((ways + 7) & ~7U) + ways + 7) / 8;
    }

    /** The metadata row of @p set, padding included. */
    std::span<const std::uint8_t>
    metadataRow(std::uint32_t set) const
    {
        return {reinterpret_cast<const std::uint8_t *>(setRow(set)),
                row_words_ * sizeof(std::uint64_t)};
    }
    /** @} */

    /**
     * Save/restore contents and statistics. The restoring side must
     * have constructed the array with the same geometry and policy
     * kind; the online policies are stateless beyond the per-way
     * metadata (Belady is offline-only and not checkpointable).
     *
     * Contents travel as the way count followed by one WayState
     * record per way, set-major. A load whose count differs from
     * sets * ways, or in which a set's ranks are not a permutation
     * of [0, ways), fails the archive and leaves the array
     * untouched.
     */
    void serialize(hh::snap::Archive &ar);

  private:
    std::uint32_t
    setIndex(Addr key) const
    {
        // Power-of-two fast path; otherwise modulo.
        if ((geom_.sets & (geom_.sets - 1)) == 0)
            return static_cast<std::uint32_t>(key & (geom_.sets - 1));
        return static_cast<std::uint32_t>(key % geom_.sets);
    }

    /** Ask the host to load the cache line holding @p p. */
    static void
    prefetchLine(const char *p)
    {
#if defined(__x86_64__) || defined(__i386__)
        // Not __builtin_prefetch: GCC counts the builtin as free of
        // side effects, so it may mark a function made only of
        // prefetches const and delete every call to it. A volatile
        // asm statement is never deleted.
        asm volatile("prefetcht0 %0" : : "m"(*p));
#else
        __builtin_prefetch(p);
#endif
    }

    /**
     * Prefetch the host cache lines of [p, p + n), n > 0: all of them
     * while n <= 128 (such a run spans at most three 64-byte lines,
     * and its middle byte lies in the middle one), the first, middle
     * and last beyond.
     */
    static void
    prefetchBytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const char *>(p);
        prefetchLine(b);
        prefetchLine(b + (n - 1) / 2);
        prefetchLine(b + n - 1);
    }

    /**
     * @name Probe kernels
     *
     * One probe body (set_assoc.cc), compiled per way count W and
     * victim policy P: W = 4, 8, 12 or 16 with a power-of-two set
     * count, or W = 0, which reads the geometry at run time. P is
     * LruPolicy, HardHarvestPolicy or CdpPolicy, whose victims are
     * inlined, or ReplacementPolicy for the virtual victim and hooks.
     * The constructor picks one instantiation for both entry points.
     * @{
     */
    template <unsigned W, typename P>
    AccessResult accessKernel(Addr key, bool shared, WayMask allowed,
                              bool instr);
    template <unsigned W, typename P>
    std::uint32_t runKernel(const Addr *keys, const std::uint32_t *order,
                            std::uint32_t n, const std::uint8_t *flags,
                            WayMask allowed, std::uint32_t *misses);
    template <unsigned W, typename P>
    void bindKernels();

    AccessResult (SetAssocArray::*access_kernel_)(Addr, bool, WayMask,
                                                  bool) = nullptr;
    std::uint32_t (SetAssocArray::*run_kernel_)(
        const Addr *, const std::uint32_t *, std::uint32_t,
        const std::uint8_t *, WayMask, std::uint32_t *) = nullptr;
    /** @} */

    /** @name Row access @{ */
    std::uint64_t *
    setRow(std::uint32_t set)
    {
        return &rows_[static_cast<std::size_t>(set) * row_words_];
    }
    const std::uint64_t *
    setRow(std::uint32_t set) const
    {
        return &rows_[static_cast<std::size_t>(set) * row_words_];
    }
    static std::uint8_t *
    rowRanks(std::uint64_t *row)
    {
        return reinterpret_cast<std::uint8_t *>(row) + kRankOffset;
    }
    static const std::uint8_t *
    rowRanks(const std::uint64_t *row)
    {
        return reinterpret_cast<const std::uint8_t *>(row) +
               kRankOffset;
    }
    std::uint8_t *
    rowRrpv(std::uint64_t *row) const
    {
        return rowRanks(row) + rank_stride_;
    }
    const std::uint8_t *
    rowRrpv(const std::uint64_t *row) const
    {
        return rowRanks(row) + rank_stride_;
    }
    /** @} */

    /** Tags in the tag column: sets * ways. */
    std::size_t
    tagCount() const
    {
        return static_cast<std::size_t>(geom_.sets) * geom_.ways;
    }
    /** 64-bit words of metadata rows: sets * row_words_. */
    std::size_t
    rowCount() const
    {
        return static_cast<std::size_t>(geom_.sets) * row_words_;
    }

    /** Read the way records into staged storage, then commit it. */
    void loadContents(hh::snap::Archive &ar);

    Geometry geom_;
    std::unique_ptr<ReplacementPolicy> policy_;
    /**
     * @name Cache contents: a tag column and one metadata row per set
     *
     * tags_ holds sets * ways tags, set-major. rows_ holds one
     * metadata row per set, row_words_ 64-bit words long:
     *
     *   bytes [0, 24)         valid, shared and instr way masks
     *   [24, 24 + S)          ranks, S = rank_stride_ (ways rounded
     *                         up to 8, zero padding)
     *   [24 + S, 24 + S + W)  RRPV bytes, W = ways
     *   then zero padding to a multiple of 8 bytes.
     *
     * Both columns are carved from a ColumnArena, each starting on a
     * 64-byte host line, and a snapshot load copies into them in
     * place, so they never move. Set s's
     * tags start 8 * ways * s bytes in, so an 8-way set's tags fill
     * exactly one host line and a 16-way set's exactly two. Rows are
     * not padded to host lines (at most 56 bytes for the Table 1
     * geometries), so some straddle two. A probe compares the key with
     * the set's whole tag row at once (detail::matchTags) and ANDs the
     * match with the valid mask, so it takes no branch per way; a miss
     * touches only that one row. These are the only copy of the
     * contents: snapshots and wayState() assemble WayState records
     * from them.
     *
     * Each set's ranks are a permutation of [0, ways), higher meaning
     * more recent; they start as the way index. A hit or fill
     * promotes the way to ways - 1 and drops every way ranked above
     * it by one. Flushes clear only the valid, shared and instr
     * masks: an invalid way keeps a stale tag and RRPV that nothing
     * reads (matches are ANDed with the valid mask, every
     * policy takes an invalid allowed way before comparing ranks,
     * RRPVs or tags, and wayState() reports an invalid way as a
     * flushed one). Promotion keeps the relative order of the other
     * ways, so among valid ways the rank order is the order of last
     * use. A promotion works on whole 64-bit words of the rank bytes,
     * so their padding must stay zero.
     * @{
     */
    Addr *tags_ = nullptr;
    std::uint64_t *rows_ = nullptr;
    /** @} */
    /** The columns' arena when the array was built without one. */
    std::unique_ptr<ColumnArena> own_arena_;
    WayMask harvest_mask_ = 0;
    WayMask all_mask_ = 0;
    unsigned candidate_count_; //!< M as an absolute way count.
    unsigned rank_stride_;     //!< Rank bytes per row.
    std::size_t row_words_;    //!< 64-bit words per row.
    /** Cached policy_->hasAccessHooks(): skips no-op virtual calls. */
    bool policy_hooks_ = true;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace hh::cache

#endif // HH_CACHE_SET_ASSOC_H
