/**
 * @file
 * Per-core cache/TLB hierarchy with HardHarvest partitioning.
 *
 * A CoreHierarchy owns the core-private structures (L1I, L1D, L2,
 * L1 TLB, L2 TLB) and references a per-VM L3 partition (the LLC is
 * CAT-partitioned per VM, so VMs never interact there) and the
 * server's DRAM. It implements the paper's §4.2 semantics:
 *
 *  - way-partitioning into Harvest / Non-Harvest regions,
 *  - harvest-VM execution restricted to the harvest ways,
 *  - harvest-region-only flush with the ways hidden from the Primary
 *    VM until a fixed worst-case bound has elapsed (timing
 *    side-channel defense), and
 *  - full flush for the conventional wbinvd path.
 */

#ifndef HH_CACHE_HIERARCHY_H
#define HH_CACHE_HIERARCHY_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>

#include "cache/config.h"
#include "cache/set_assoc.h"
#include "mem/dram.h"
#include "sim/time.h"

namespace hh::cache {

/** Lines per page given the line and page sizes. */
inline constexpr std::uint64_t kLinesPerPage = kPageBytes / kLineBytes;

/**
 * One memory reference as produced by the workload generator.
 */
struct MemAccess
{
    Addr page = 0;          //!< Globally unique page id (includes VM).
    std::uint32_t line = 0; //!< Line within the page [0, 64).
    bool isInstr = false;   //!< Instruction-side access.
    bool shared = true;     //!< Page's Shared bit (§4.2.2).
};

/**
 * Hierarchy construction parameters.
 */
struct HierarchyConfig
{
    Geometry l1d = kL1D;
    Geometry l1i = kL1I;
    Geometry l2 = kL2;
    Geometry l1tlb = kL1Tlb;
    Geometry l2tlb = kL2Tlb;

    ReplKind repl = ReplKind::LRU;

    /** Eviction-candidate fraction M (§4.2.3); 0.75 in Table 1. */
    double candidateFraction = 1.0;

    /** Fraction of ways in the harvest region; 0.5 in Table 1. */
    double harvestWayFraction = 0.5;

    /** Enable harvest/non-harvest partitioning (HardHarvest only). */
    bool partitioning = false;

    /** Global way scaling for the Fig 7 sweep (1.0 = full size). */
    double waysFraction = 1.0;

    /** Model infinite caches/TLBs (only compulsory misses). */
    bool infinite = false;

    /** Cycles a page-table walk costs on an L2 TLB miss. */
    hh::sim::Cycles pageWalk = kPageWalkCycles;

    /**
     * Number of real accesses each access represents when the
     * caller replays a sampled stream (DRAM occupancy scaling).
     */
    unsigned accessWeight = 1;
};

/**
 * The private hierarchy of one core.
 */
class CoreHierarchy
{
  public:
    /**
     * @param cfg  Configuration; geometries are scaled by
     *             cfg.waysFraction internally.
     * @param l3   Per-VM L3 partition, or nullptr to go straight to
     *             DRAM. Re-bindable on VM switches via setL3().
     * @param dram Server DRAM model (must outlive the hierarchy), or
     *             nullptr to charge a fixed latency.
     * @param arena Host memory for the private arrays' columns
     *             (columnBytes(cfg) of it; must outlive the
     *             hierarchy), or nullptr for one private arena per
     *             array.
     */
    CoreHierarchy(const HierarchyConfig &cfg, SetAssocArray *l3,
                  hh::mem::Dram *dram, ColumnArena *arena = nullptr);

    /** Arena bytes the private arrays of a @p cfg hierarchy take. */
    static std::size_t columnBytes(const HierarchyConfig &cfg);

    /**
     * Perform one memory access and return its total latency.
     *
     * @param now Current simulated time (DRAM queueing).
     * @param a   The access.
     */
    hh::sim::Cycles access(hh::sim::Cycles now, const MemAccess &a);

    /**
     * Replay the sampled share of @p accesses real accesses from
     * @p now and return the memory time they take at full weight.
     *
     * One replayed access stands for accessWeight real ones. The
     * replayed count n is rounded to nearest and the residual weight
     * carried in @p carry, so over many calls the replayed total
     * converges to accesses / accessWeight (plain truncation would
     * lose up to accessWeight - 1 accesses per call). The time cursor
     * advances by each access's latency times accessWeight, so DRAM
     * sees correctly spaced traffic instead of a same-instant burst.
     *
     * @p draw(std::span<MemAccess> out) fills out with the next n
     * accesses, in order; it is called once, and not at all when n is
     * 0. Drawing every access before probing any gives the same result
     * as drawing each just before its probe, because the stream never
     * depends on cache state. The drawn accesses then replay as in
     * replayDrawn().
     */
    template <typename Draw>
    hh::sim::Cycles
    replay(hh::sim::Cycles now, std::uint32_t accesses,
           std::int32_t &carry, Draw &&draw)
    {
        const unsigned sampling = std::max(1u, cfg_.accessWeight);
        const std::int64_t pool =
            static_cast<std::int64_t>(accesses) + carry;
        const auto n = static_cast<std::uint32_t>(
            (pool + sampling / 2) / sampling);
        carry = static_cast<std::int32_t>(
            pool - static_cast<std::int64_t>(n) * sampling);
        if (n == 0)
            return 0;
        const std::span<MemAccess> drawn = drawBuffer(n);
        draw(drawn);
        return replayDrawn(now, drawn);
    }

    /**
     * Switch between Primary (false) and Harvest (true) execution.
     * In harvest mode with partitioning enabled, fills are limited to
     * the harvest ways.
     */
    void setHarvestMode(bool on) { harvest_mode_ = on; }

    /** Rebind the L3 partition (on a VM switch). */
    void setL3(SetAssocArray *l3) { l3_ = l3; }

    /** Currently bound L3 partition (snapshot rebinding, tests). */
    SetAssocArray *l3Partition() const { return l3_; }

    /** @name Cross-VM cache leasing (src/lease/) @{ */
    /**
     * Bind a lender VM's L3 partition as overflow capacity for batch
     * work on this core: after a miss in the core's own L3 partition,
     * the leased ways of @p l3 are probed/filled before DRAM. Null
     * @p l3 (the default) disables the probe at the cost of one
     * untaken branch. The binding is derived scheduling state and is
     * *not* serialized — the owner recomputes it after restoring,
     * mirroring setL3().
     */
    void
    setLeaseL3(SetAssocArray *l3, WayMask ways)
    {
        lease_l3_ = l3;
        lease_l3_mask_ = ways;
    }

    /**
     * Extra private-L2 ways granted to the harvest region while this
     * core's VM leases cache capacity cross-VM. Folded into the L2
     * harvest mask on top of harvestWayFraction (clamped so the
     * primary region keeps at least one way); shrinking the bonus
     * flushes the departing ways, so no harvested line outlives its
     * lease. No-op on the masks unless partitioning is enabled.
     */
    void setL2LeaseBonus(unsigned ways);
    /** @} */

    /** Flush and invalidate everything (wbinvd-style). */
    void flushAll();

    /**
     * Flush only the harvest region and hide those ways from the
     * Primary VM until @p now + @p bound (side-channel defense,
     * §4.2.1). No-op unless partitioning is enabled.
     */
    void flushHarvestRegion(hh::sim::Cycles now, hh::sim::Cycles bound);

    /**
     * Repartition the private structures to a new harvest-way
     * fraction (harvest-policy epoch boundary). Ways leaving the
     * harvest region are flushed so the Primary VM never inherits
     * Harvest-VM lines; ways entering it get flushed by the next
     * lend's flushHarvestRegion as usual. No-op on the way masks
     * unless partitioning is enabled.
     */
    void setHarvestWayFraction(double f);

    /** @name Structure access for statistics/tests @{ */
    SetAssocArray &l1d() { return *l1d_; }
    SetAssocArray &l1i() { return *l1i_; }
    SetAssocArray &l2() { return *l2_; }
    SetAssocArray &l1tlb() { return *l1tlb_; }
    SetAssocArray &l2tlb() { return *l2tlb_; }
    /** @} */

    /** Total accesses served. */
    std::uint64_t accesses() const { return accesses_; }

    /**
     * Invariant audit of the way partitioning: per structure, the
     * harvest region is a subset of the way set, and under
     * partitioning both the harvest and non-harvest regions are
     * non-empty. Single-way structures (extreme waysFraction) are
     * legitimately left unpartitioned.
     *
     * @return nullopt when it holds, else a report naming the
     *         structure ("l2 has an empty harvest region").
     */
    std::optional<std::string> auditPartition() const;

    /**
     * Register every private structure's counters under
     * "<prefix>.l1d", "<prefix>.l2tlb", ... plus the access total.
     * The L3 partition is intentionally excluded: it is per-VM and
     * re-bindable, so its owner registers it.
     */
    void registerMetrics(hh::stats::MetricRegistry &reg,
                         const std::string &prefix);

    const HierarchyConfig &config() const { return cfg_; }

    /**
     * Save/restore every private structure plus the harvest-mode,
     * flush-bound and compulsory-miss state. The L3 binding (a raw
     * pointer into the owning server) is *not* serialized — the owner
     * rebinds it via setL3() after restoring, mirroring how it
     * re-binds on VM switches.
     */
    void
    serialize(hh::snap::Archive &ar)
    {
        ar.io(*l1d_);
        ar.io(*l1i_);
        ar.io(*l2_);
        ar.io(*l1tlb_);
        ar.io(*l2tlb_);
        ar.io(harvest_mode_);
        ar.io(harvest_visible_at_);
        ar.io(seen_lines_);
        ar.io(seen_pages_);
        ar.io(accesses_);
        ar.io(l2_lease_bonus_);
        // The policy mutates the harvest fraction at run time and a
        // lease grant/release recomputes the L2 base from it, so the
        // live value must survive a restore (the construction-time
        // config would silently shift the partition on the next
        // setL2LeaseBonus).
        ar.io(cfg_.harvestWayFraction);
    }

  private:
    /**
     * This thread's draw buffer, resized to @p n. One buffer per
     * thread, shared by every hierarchy the thread replays.
     */
    static std::span<MemAccess> drawBuffer(std::uint32_t n);

    /**
     * Replay @p drawn from @p now, each access at accessWeight, and
     * return the memory time they take: exactly what access(t, a) for
     * each a in order would do, the cursor t starting at @p now and
     * advancing by accessWeight times each latency.
     *
     * When the fill masks cannot change during the call (harvest
     * mode, no partitioning, or the hidden harvest ways already
     * visible at @p now), it replays level by level instead. Every
     * array is non-inclusive and fills on each miss, so each level's
     * state depends only on the order of the misses from the level
     * above. The passes: both TLB levels, L1I and L1D over their own
     * accesses, L2 over the L1 misses in access order, the L3
     * partition, then the leased L3; a last in-order pass charges
     * DRAM at each access's rebuilt cursor time. Every array sees the
     * same keys, flags and fill masks in the same order as the
     * access-major loop, so every simulated byte is the same. A
     * Primary call inside the flush-bound window, infinite mode and a
     * lease of the core's own L3 partition keep the access-major
     * loop.
     */
    hh::sim::Cycles replayDrawn(hh::sim::Cycles now,
                                std::span<const MemAccess> drawn);

    /** The level-by-level replay of replayDrawn(). */
    hh::sim::Cycles replayPasses(hh::sim::Cycles now,
                                 std::span<const MemAccess> drawn);

    /** Fill mask for a private structure given the current mode. */
    WayMask allowedMask(const SetAssocArray &arr,
                        hh::sim::Cycles now) const;

    std::unique_ptr<SetAssocArray> makeArray(const Geometry &scaled,
                                             ColumnArena *arena) const;

    /** Recompute one array's harvest mask, flushing departing ways. */
    void repartitionArray(SetAssocArray &arr, unsigned extraWays);

    HierarchyConfig cfg_;
    std::unique_ptr<SetAssocArray> l1d_;
    std::unique_ptr<SetAssocArray> l1i_;
    std::unique_ptr<SetAssocArray> l2_;
    std::unique_ptr<SetAssocArray> l1tlb_;
    std::unique_ptr<SetAssocArray> l2tlb_;
    SetAssocArray *l3_ = nullptr;
    hh::mem::Dram *dram_ = nullptr;

    /** Borrowed L3 overflow partition (cache lease), or null. */
    SetAssocArray *lease_l3_ = nullptr;
    WayMask lease_l3_mask_ = 0;
    /** Extra L2 harvest ways while this core's VM leases capacity. */
    unsigned l2_lease_bonus_ = 0;

    bool harvest_mode_ = false;
    /** Primary may use harvest ways again from this time on. */
    hh::sim::Cycles harvest_visible_at_ = 0;

    /** Compulsory-miss tracking for infinite mode. */
    std::unordered_set<Addr> seen_lines_;
    std::unordered_set<Addr> seen_pages_;

    std::uint64_t accesses_ = 0;
};

} // namespace hh::cache

#endif // HH_CACHE_HIERARCHY_H
