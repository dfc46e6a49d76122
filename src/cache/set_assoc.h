/**
 * @file
 * Generic set-associative array used for every cache level and TLB.
 *
 * The array adds the two HardHarvest hardware bits on top of a
 * conventional tag array:
 *  - a per-entry Shared bit (copied from the page table, §4.2.2), and
 *  - a per-way Harvest bit (the HarvestMask region, §4.2.1),
 * plus selective flushing of only the harvest ways and the
 * eviction-candidate restriction used by the HardHarvest policy.
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
#include <string>
#include <vector>

#include "cache/config.h"
#include "cache/replacement.h"

namespace hh::stats {
class MetricRegistry;
}

namespace hh::cache {

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
     */
    SetAssocArray(const Geometry &geom,
                  std::unique_ptr<ReplacementPolicy> policy);

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
            for (WayMask m = valid_bits_[s] & mask; m; m &= m - 1) {
                const auto w = static_cast<unsigned>(
                    std::countr_zero(m));
                fn(s, w, tags_[si + w]);
            }
        }
    }

    /**
     * One way's state, assembled from the columns (tests, examples,
     * snapshot records).
     */
    WayState wayState(std::uint32_t set, unsigned way) const;

    /** Mask covering all ways of this array. */
    WayMask allWays() const { return all_mask_; }

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
    std::uint32_t setIndex(Addr key) const;

    /**
     * The M least-recently-used ways of @p allowed in a set. Only
     * meaningful when every allowed way is valid.
     */
    WayMask candidateMask(std::uint32_t set, WayMask allowed) const;

    /** The rank column of @p set (rank_stride_ bytes). */
    std::uint8_t *
    setRanks(std::uint32_t set)
    {
        return &rank_[static_cast<std::size_t>(set) * rank_stride_];
    }
    const std::uint8_t *
    setRanks(std::uint32_t set) const
    {
        return &rank_[static_cast<std::size_t>(set) * rank_stride_];
    }

    /** Make @p way the most recently used of the set at @p rank. */
    void promote(std::uint8_t *rank, unsigned way);

    /** Read the way records into staged columns, then commit them. */
    void loadContents(hh::snap::Archive &ar);

    Geometry geom_;
    std::unique_ptr<ReplacementPolicy> policy_;
    /**
     * @name Cache contents, one column per field
     *
     * The per-way columns are sets * ways long, row-major; the
     * boolean fields are folded into one bitmap per set. The access
     * hot path is a tag search over the valid ways plus one pass over
     * the set's ranks, each over contiguous memory. These columns are
     * the only copy of the contents: snapshots and wayState()
     * assemble WayState records from them.
     *
     * Each set's ranks are a permutation of [0, ways), higher meaning
     * more recent; they start as the way index. A hit or fill
     * promotes the way to ways - 1 and drops every way ranked above
     * it by one. Flushes leave ranks alone: policies take an invalid
     * allowed way before comparing ranks, and promotion keeps the
     * relative order of the other ways, so among valid ways the rank
     * order is the order of last use. The rank column gives each set
     * rank_stride_ bytes (ways rounded up to 8, zero padding), so a
     * promotion works on whole 64-bit words.
     * @{
     */
    std::vector<Addr> tags_;
    std::vector<std::uint8_t> rank_;
    std::vector<std::uint8_t> rrpv_;
    std::vector<WayMask> valid_bits_;  //!< one mask per set.
    std::vector<WayMask> shared_bits_; //!< one mask per set.
    std::vector<WayMask> instr_bits_;  //!< one mask per set.
    /** @} */
    WayMask harvest_mask_ = 0;
    WayMask all_mask_ = 0;
    unsigned candidate_count_; //!< M as an absolute way count.
    unsigned rank_stride_;     //!< Bytes per set in rank_.
    /** Cached policy_->usesCandidates() (virtual call per miss). */
    bool policy_uses_candidates_ = false;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace hh::cache

#endif // HH_CACHE_SET_ASSOC_H
