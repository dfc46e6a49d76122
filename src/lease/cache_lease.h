/**
 * @file
 * Cross-VM cache-capacity leasing (the second harvest dimension).
 *
 * HardHarvest harvests idle *cores*; this subsystem harvests idle
 * cache *capacity* the same way. A per-server CacheLeaseManager lends
 * an idle Primary VM's resources to the batch (Harvest) VM under an
 * explicit lease:
 *
 *  - an L3 CAT-partition slice: the low `cacheLendL3Ways` ways of the
 *    lender's private L3 partition are marked as that partition's
 *    harvest region, the owner fills around them, and batch-running
 *    cores probe/fill them as overflow capacity after missing in
 *    their own partition;
 *  - private L2 ways: the lender's cores widen their L2 harvest
 *    region by an extra way bonus, so batch work running on lent
 *    cores sees more private capacity.
 *
 * The lifecycle mirrors the paper's §4.2 harvest-region semantics:
 * grant (leased ways flushed so the borrower starts clean) -> use ->
 * recall or term expiry -> flush-on-return (every borrower line in
 * the leased ways is invalidated before the owner reclaims them).
 * audit() checks the return half for the auditor's "lease"
 * invariant: no harvested line may outlive its lease.
 *
 * The manager is pure mechanism. Deciding *which* VMs lend and when
 * is the owner's job (ServerSim::leaseTick, driven by the policy
 * subsystem's per-VM cache-lend decisions).
 */

#ifndef HH_LEASE_CACHE_LEASE_H
#define HH_LEASE_CACHE_LEASE_H

#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cache/set_assoc.h"
#include "sim/time.h"
#include "snapshot/archive.h"

namespace hh::lease {

/**
 * Per-server lease bookkeeping over the primary VMs' L3 partitions.
 */
class CacheLeaseManager
{
  public:
    /** One VM's lease slot. */
    struct Lease
    {
        bool active = false;
        /** L3 ways currently leased to the batch VM. */
        hh::cache::WayMask l3Ways = 0;
        /** Extra private-L2 harvest ways on the lender's cores. */
        std::uint32_t l2Bonus = 0;
        hh::sim::Cycles grantedAt = 0;
        hh::sim::Cycles expiresAt = 0;
        /**
         * Every way this VM has ever leased out. Ways in
         * `everLeased & ~l3Ways` have been returned — the auditor
         * scans them for borrower lines that outlived their lease.
         */
        hh::cache::WayMask everLeased = 0;

        /** Ways leased out now (none while inactive). */
        hh::cache::WayMask
        held() const
        {
            return active ? l3Ways : hh::cache::WayMask{0};
        }
        /** Ways leased out before and handed back since. */
        hh::cache::WayMask returned() const { return everLeased & ~held(); }

        void
        serialize(hh::snap::Archive &ar)
        {
            ar.io(active);
            ar.io(l3Ways);
            ar.io(l2Bonus);
            ar.io(grantedAt);
            ar.io(expiresAt);
            ar.io(everLeased);
        }
    };

    /**
     * @param vms  Primary-VM count (lease slots).
     * @param term Cycles after which a grant auto-expires.
     */
    CacheLeaseManager(unsigned vms, hh::sim::Cycles term);

    /**
     * Grant a lease on @p vm's partition: flush the leased ways (the
     * borrower starts clean), mark them as the partition's harvest
     * region and start the term clock.
     *
     * @return Lender lines evicted by the handoff flush.
     */
    std::uint64_t grant(unsigned vm, hh::cache::SetAssocArray &l3,
                        hh::sim::Cycles now, hh::cache::WayMask ways,
                        std::uint32_t l2Bonus);

    /**
     * End @p vm's lease (policy recall or term expiry): flush every
     * borrower line out of the leased ways (flush-on-return) and
     * hand the ways back to the owner.
     *
     * @return Borrower lines invalidated by the return flush.
     */
    std::uint64_t release(unsigned vm, hh::cache::SetAssocArray &l3,
                          hh::sim::Cycles now, bool expired);

    bool active(unsigned vm) const { return leases_[vm].active; }

    /** Lease past its term (lazy expiry at the next lease tick). */
    bool
    expired(unsigned vm, hh::sim::Cycles now) const
    {
        return leases_[vm].active && now >= leases_[vm].expiresAt;
    }

    const Lease &lease(unsigned vm) const { return leases_[vm]; }

    /**
     * Invariant audit: every lender partition's harvest mask equals
     * the ways its lease slot holds, and no line of address space
     * @p batchAsid survives in a way whose lease ended. Line keys
     * carry their asid from bit 48 up (src/workload/address_space.cc).
     *
     * @param l3ByVm    Each VM's L3 partition, indexed by VM id; null
     *                  entries (VMs that never lend) are skipped.
     * @param batchAsid The borrower's address-space id.
     * @return nullopt when it holds, else the first report.
     */
    std::optional<std::string>
    audit(std::span<const hh::cache::SetAssocArray *const> l3ByVm,
          std::uint32_t batchAsid) const;

    /** Active lender VM ids, ascending (deterministic binding order). */
    std::vector<unsigned> activeLenders() const;

    /** Total L3 ways currently leased out across all VMs. */
    unsigned
    lentL3Ways() const
    {
        unsigned n = 0;
        for (const Lease &l : leases_)
            if (l.active)
                n += static_cast<unsigned>(std::popcount(l.l3Ways));
        return n;
    }

    /** @name Lifetime counters @{ */
    std::uint64_t grants() const { return grants_; }
    std::uint64_t recalls() const { return recalls_; }
    std::uint64_t expiries() const { return expiries_; }
    /** Lines invalidated by handoff + return flushes. */
    std::uint64_t flushedLines() const { return flushed_lines_; }
    /** Integrated leased-way-cycles (capacity actually lent). */
    std::uint64_t
    wayCycles(hh::sim::Cycles now) const
    {
        return way_cycles_ +
               static_cast<std::uint64_t>(lentL3Ways()) *
                   (now - last_accrue_);
    }
    /** @} */

    /**
     * Save/restore lease slots and counters. The L3 harvest masks
     * live in the partitions themselves (serialized with their VM);
     * core-side lease bindings are derived state the owner recomputes
     * after restoring.
     */
    void serialize(hh::snap::Archive &ar);

  private:
    /** Fold elapsed leased-way-cycles into way_cycles_. */
    void accrue(hh::sim::Cycles now);

    hh::sim::Cycles term_;
    std::vector<Lease> leases_;
    std::uint64_t grants_ = 0;
    std::uint64_t recalls_ = 0;
    std::uint64_t expiries_ = 0;
    std::uint64_t flushed_lines_ = 0;
    std::uint64_t way_cycles_ = 0;
    hh::sim::Cycles last_accrue_ = 0;
};

} // namespace hh::lease

#endif // HH_LEASE_CACHE_LEASE_H
