#include "lease/cache_lease.h"

#include "sim/log.h"

namespace hh::lease {

using hh::cache::SetAssocArray;
using hh::cache::WayMask;
using hh::sim::Cycles;

CacheLeaseManager::CacheLeaseManager(unsigned vms, Cycles term)
    : term_(term), leases_(vms)
{
}

void
CacheLeaseManager::accrue(Cycles now)
{
    way_cycles_ += static_cast<std::uint64_t>(lentL3Ways()) *
                   (now - last_accrue_);
    last_accrue_ = now;
}

std::uint64_t
CacheLeaseManager::grant(unsigned vm, SetAssocArray &l3, Cycles now,
                         WayMask ways, std::uint32_t l2Bonus)
{
    if (vm >= leases_.size())
        hh::sim::panic("CacheLeaseManager::grant: vm ", vm, " of ",
                       leases_.size());
    Lease &l = leases_[vm];
    if (l.active)
        hh::sim::panic("CacheLeaseManager::grant: vm ", vm,
                       " already leasing");
    ways &= l3.allWays();
    if (!ways || ways == l3.allWays())
        hh::sim::panic("CacheLeaseManager::grant: degenerate way "
                       "mask for vm ", vm);
    accrue(now);
    const std::uint64_t flushed = l3.validCountInWays(ways);
    l3.flushWays(ways);
    l3.setHarvestWays(ways);
    l.active = true;
    l.l3Ways = ways;
    l.l2Bonus = l2Bonus;
    l.grantedAt = now;
    l.expiresAt = now + term_;
    l.everLeased |= ways;
    ++grants_;
    flushed_lines_ += flushed;
    return flushed;
}

std::uint64_t
CacheLeaseManager::release(unsigned vm, SetAssocArray &l3, Cycles now,
                           bool expired)
{
    if (vm >= leases_.size())
        hh::sim::panic("CacheLeaseManager::release: vm ", vm, " of ",
                       leases_.size());
    Lease &l = leases_[vm];
    if (!l.active)
        hh::sim::panic("CacheLeaseManager::release: vm ", vm,
                       " not leasing");
    accrue(now);
    const std::uint64_t flushed = l3.validCountInWays(l.l3Ways);
    l3.flushWays(l.l3Ways);
    l3.setHarvestWays(0);
    l.active = false;
    l.l3Ways = 0;
    l.l2Bonus = 0;
    if (expired)
        ++expiries_;
    else
        ++recalls_;
    flushed_lines_ += flushed;
    return flushed;
}

std::optional<std::string>
CacheLeaseManager::audit(std::span<const SetAssocArray *const> l3ByVm,
                         std::uint32_t batchAsid) const
{
    using hh::sim::detail::concat;
    for (unsigned vm = 0; vm < leases_.size() && vm < l3ByVm.size();
         ++vm) {
        const SetAssocArray *l3 = l3ByVm[vm];
        if (!l3)
            continue;
        if (l3->harvestWays() != leases_[vm].held())
            return concat("vm ", vm,
                          " L3 harvest mask disagrees with its lease "
                          "slot");
        std::optional<std::string> err;
        l3->forEachValidInWays(
            leases_[vm].returned(),
            [&](std::uint32_t, unsigned way, hh::cache::Addr t) {
                if (!err && static_cast<std::uint32_t>(t >> 48) ==
                                batchAsid)
                    err = concat("vm ", vm, " L3 way ", way,
                                 " holds a batch line after its lease "
                                 "ended");
            });
        if (err)
            return err;
    }
    return std::nullopt;
}

std::vector<unsigned>
CacheLeaseManager::activeLenders() const
{
    std::vector<unsigned> vms;
    for (unsigned v = 0; v < leases_.size(); ++v)
        if (leases_[v].active)
            vms.push_back(v);
    return vms;
}

void
CacheLeaseManager::serialize(hh::snap::Archive &ar)
{
    for (Lease &l : leases_)
        l.serialize(ar);
    ar.io(grants_);
    ar.io(recalls_);
    ar.io(expiries_);
    ar.io(flushed_lines_);
    ar.io(way_cycles_);
    ar.io(last_accrue_);
}

} // namespace hh::lease
