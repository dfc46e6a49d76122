#include "cache/hierarchy.h"

#include <algorithm>
#include <cmath>

#include "sim/log.h"
#include "sim/prof.h"
#include "stats/registry.h"

namespace hh::cache {

using hh::sim::Cycles;

namespace {

/** Fallback DRAM latency when no Dram model is attached. */
constexpr Cycles kFlatDramLatency = 200;

unsigned
harvestWayCount(const Geometry &g, double fraction)
{
    const auto n = static_cast<unsigned>(
        std::lround(fraction * static_cast<double>(g.ways)));
    // Keep at least one way on each side of the partition.
    return std::min(std::max(1u, n), g.ways - 1);
}

} // namespace

std::unique_ptr<SetAssocArray>
CoreHierarchy::makeArray(const Geometry &g) const
{
    const Geometry scaled = scaleWays(g, cfg_.waysFraction);
    auto arr = std::make_unique<SetAssocArray>(scaled,
                                               makePolicy(cfg_.repl));
    arr->setCandidateFraction(cfg_.candidateFraction);
    if (cfg_.partitioning && scaled.ways >= 2) {
        arr->setHarvestWayCount(
            harvestWayCount(scaled, cfg_.harvestWayFraction));
    }
    return arr;
}

CoreHierarchy::CoreHierarchy(const HierarchyConfig &cfg,
                             SetAssocArray *l3, hh::mem::Dram *dram)
    : cfg_(cfg), l3_(l3), dram_(dram)
{
    if (cfg.waysFraction <= 0.0 || cfg.waysFraction > 1.0)
        hh::sim::fatal("CoreHierarchy: waysFraction must be in (0, 1]");
    l1d_ = makeArray(cfg.l1d);
    l1i_ = makeArray(cfg.l1i);
    l2_ = makeArray(cfg.l2);
    l1tlb_ = makeArray(cfg.l1tlb);
    l2tlb_ = makeArray(cfg.l2tlb);
}

WayMask
CoreHierarchy::allowedMask(const SetAssocArray &arr, Cycles now) const
{
    if (!cfg_.partitioning)
        return arr.allWays();
    if (harvest_mode_)
        return arr.harvestWays() ? arr.harvestWays() : arr.allWays();
    // Primary mode: harvest ways stay hidden until the background
    // flush's worst-case bound has elapsed.
    if (now < harvest_visible_at_) {
        const WayMask m = arr.allWays() & ~arr.harvestWays();
        return m ? m : arr.allWays();
    }
    return arr.allWays();
}

Cycles
CoreHierarchy::access(Cycles now, const MemAccess &a)
{
    HH_PROF_SCOPE("cache.hierarchy_access");
    ++accesses_;
    Cycles lat = 0;

    const Addr line_key = a.page * kLinesPerPage + (a.line % kLinesPerPage);
    // Instruction pages always carry Shared=1 (§4.2.3).
    const bool shared = a.isInstr ? true : a.shared;

    if (cfg_.infinite) {
        // Infinite structures: only compulsory misses cost anything,
        // and the infinite (VM-shared) LLC supplies first touches,
        // so a line's first access pays an L2+L3 fill, not DRAM.
        lat += cfg_.l1tlb.latency;
        if (seen_pages_.insert(a.page).second)
            lat += cfg_.l2tlb.latency + cfg_.pageWalk;
        lat += (a.isInstr ? cfg_.l1i : cfg_.l1d).latency;
        if (seen_lines_.insert(line_key).second)
            lat += cfg_.l2.latency + kL3PerCore.latency;
        return lat;
    }

    // -------- Address translation --------
    lat += l1tlb_->geometry().latency;
    if (!l1tlb_->access(a.page, shared, allowedMask(*l1tlb_, now)).hit) {
        lat += l2tlb_->geometry().latency;
        if (!l2tlb_->access(a.page, shared, allowedMask(*l2tlb_, now))
                 .hit) {
            lat += cfg_.pageWalk;
        }
    }

    // -------- Data/instruction path --------
    SetAssocArray &l1 = a.isInstr ? *l1i_ : *l1d_;
    lat += l1.geometry().latency;
    if (l1.access(line_key, shared, allowedMask(l1, now), a.isInstr)
            .hit) {
        return lat;
    }

    lat += l2_->geometry().latency;
    if (l2_->access(line_key, shared, allowedMask(*l2_, now),
                    a.isInstr)
            .hit) {
        return lat;
    }

    if (l3_) {
        lat += l3_->geometry().latency;
        // Ways leased cross-VM (the L3 partition's harvest mask) are
        // reserved for the borrower; the owner fills around them.
        const WayMask own = l3_->allWays() & ~l3_->harvestWays();
        if (l3_->access(line_key, shared, own ? own : l3_->allWays())
                .hit) {
            return lat;
        }
    }

    // Leased ways borrowed from another VM's partition. No extra
    // latency: CAT way masks constrain fills, not lookups — the
    // leased ways sit in the same physical L3 slice the set index
    // already selected, so a hit here is an ordinary L3 hit.
    if (lease_l3_ && lease_l3_mask_) {
        if (lease_l3_->access(line_key, shared, lease_l3_mask_).hit)
            return lat;
    }

    lat += dram_ ? dram_->access(now, line_key, cfg_.accessWeight) : kFlatDramLatency;
    return lat;
}

void
CoreHierarchy::prefetch(const MemAccess &a) const
{
    if (cfg_.infinite)
        return;
    const Addr line_key = a.page * kLinesPerPage + (a.line % kLinesPerPage);
    l1tlb_->prefetch(a.page);
    l2tlb_->prefetch(a.page);
    (a.isInstr ? *l1i_ : *l1d_).prefetch(line_key);
    l2_->prefetch(line_key);
    if (l3_)
        l3_->prefetch(line_key);
    if (lease_l3_ && lease_l3_mask_)
        lease_l3_->prefetch(line_key);
}

void
CoreHierarchy::flushAll()
{
    l1d_->flushAll();
    l1i_->flushAll();
    l2_->flushAll();
    l1tlb_->flushAll();
    l2tlb_->flushAll();
    seen_lines_.clear();
    seen_pages_.clear();
}

void
CoreHierarchy::flushHarvestRegion(Cycles now, Cycles bound)
{
    if (!cfg_.partitioning) {
        flushAll();
        return;
    }
    l1d_->flushWays(l1d_->harvestWays());
    l1i_->flushWays(l1i_->harvestWays());
    l2_->flushWays(l2_->harvestWays());
    l1tlb_->flushWays(l1tlb_->harvestWays());
    l2tlb_->flushWays(l2tlb_->harvestWays());
    harvest_visible_at_ = now + bound;
}

void
CoreHierarchy::repartitionArray(SetAssocArray &arr, unsigned extraWays)
{
    if (arr.geometry().ways < 2)
        return;
    const WayMask old = arr.harvestWays();
    const unsigned base =
        harvestWayCount(arr.geometry(), cfg_.harvestWayFraction);
    arr.setHarvestWayCount(
        std::min(base + extraWays, arr.geometry().ways - 1));
    const WayMask leaving = old & ~arr.harvestWays();
    if (leaving)
        arr.flushWays(leaving);
}

void
CoreHierarchy::setHarvestWayFraction(double f)
{
    cfg_.harvestWayFraction = f;
    if (!cfg_.partitioning)
        return;
    for (SetAssocArray *arr : {l1d_.get(), l1i_.get(), l2_.get(),
                               l1tlb_.get(), l2tlb_.get()}) {
        repartitionArray(*arr, arr == l2_.get() ? l2_lease_bonus_ : 0);
    }
}

void
CoreHierarchy::setL2LeaseBonus(unsigned ways)
{
    l2_lease_bonus_ = ways;
    if (!cfg_.partitioning)
        return;
    repartitionArray(*l2_, ways);
}

void
CoreHierarchy::registerMetrics(hh::stats::MetricRegistry &reg,
                               const std::string &prefix)
{
    l1d_->registerMetrics(reg, prefix + ".l1d");
    l1i_->registerMetrics(reg, prefix + ".l1i");
    l2_->registerMetrics(reg, prefix + ".l2");
    l1tlb_->registerMetrics(reg, prefix + ".l1tlb");
    l2tlb_->registerMetrics(reg, prefix + ".l2tlb");
    reg.registerCounter(prefix + ".accesses", accesses_);
}

std::optional<std::string>
CoreHierarchy::auditPartition() const
{
    using hh::sim::detail::concat;
    const SetAssocArray *arrs[] = {l1d_.get(), l1i_.get(), l2_.get(),
                                   l1tlb_.get(), l2tlb_.get()};
    const char *names[] = {"l1d", "l1i", "l2", "l1tlb", "l2tlb"};
    for (unsigned i = 0; i < 5; ++i) {
        const WayMask hw = arrs[i]->harvestWays();
        const WayMask all = arrs[i]->allWays();
        if (hw & ~all)
            return concat(names[i],
                          " harvest region escapes the way set");
        const bool partitionable = (all & (all - 1)) != 0;
        if (cfg_.partitioning && partitionable && hw == 0)
            return concat(names[i], " has an empty harvest region");
        if (cfg_.partitioning && partitionable && (all & ~hw) == 0)
            return concat(names[i], " harvest region covers every way");
    }
    return std::nullopt;
}

} // namespace hh::cache
