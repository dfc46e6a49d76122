#include "cache/hierarchy.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

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

/**
 * The private structures' geometries scaled by cfg.waysFraction, in
 * build order: L1D, L1I, L2, L1 TLB, L2 TLB.
 */
std::array<Geometry, 5>
privateGeometries(const HierarchyConfig &cfg)
{
    std::array<Geometry, 5> g{cfg.l1d, cfg.l1i, cfg.l2, cfg.l1tlb,
                              cfg.l2tlb};
    for (Geometry &x : g)
        x = scaleWays(x, cfg.waysFraction);
    return g;
}

} // namespace

std::size_t
CoreHierarchy::columnBytes(const HierarchyConfig &cfg)
{
    std::size_t bytes = 0;
    for (const Geometry &g : privateGeometries(cfg))
        bytes += ColumnArena::bytesFor(g).total();
    return bytes;
}

std::unique_ptr<SetAssocArray>
CoreHierarchy::makeArray(const Geometry &scaled, ColumnArena *arena) const
{
    auto arr = std::make_unique<SetAssocArray>(
        scaled, makePolicy(cfg_.repl), arena);
    arr->setCandidateFraction(cfg_.candidateFraction);
    if (cfg_.partitioning && scaled.ways >= 2) {
        arr->setHarvestWayCount(
            harvestWayCount(scaled, cfg_.harvestWayFraction));
    }
    return arr;
}

CoreHierarchy::CoreHierarchy(const HierarchyConfig &cfg,
                             SetAssocArray *l3, hh::mem::Dram *dram,
                             ColumnArena *arena)
    : cfg_(cfg), l3_(l3), dram_(dram)
{
    if (cfg.waysFraction <= 0.0 || cfg.waysFraction > 1.0)
        hh::sim::fatal("CoreHierarchy: waysFraction must be in (0, 1]");
    const auto g = privateGeometries(cfg);
    l1d_ = makeArray(g[0], arena);
    l1i_ = makeArray(g[1], arena);
    l2_ = makeArray(g[2], arena);
    l1tlb_ = makeArray(g[3], arena);
    l2tlb_ = makeArray(g[4], arena);
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

namespace {

/**
 * One thread's replay buffers, kept across calls so a replay
 * allocates only when it is longer than any before it on the thread.
 */
struct ReplayScratch
{
    std::vector<MemAccess> drawn;
    std::vector<Addr> pages;            //!< TLB keys
    std::vector<Addr> lines;            //!< cache keys
    std::vector<std::uint8_t> sharedFlags; //!< TLBs and L3s: shared bit
    std::vector<std::uint8_t> flags;       //!< L1s and L2: shared, instr
    std::vector<Cycles> lat;            //!< latency before DRAM
    std::vector<std::uint32_t> all;     //!< 0, 1, ..., n - 1
    std::vector<std::uint32_t> instr, data, tlbMiss, walk, instrMiss,
        dataMiss, l1Miss, l2Miss, l3Miss, memMiss;
};

ReplayScratch &
replayScratch()
{
    thread_local ReplayScratch s;
    return s;
}

} // namespace

std::span<MemAccess>
CoreHierarchy::drawBuffer(std::uint32_t n)
{
    std::vector<MemAccess> &drawn = replayScratch().drawn;
    drawn.resize(n);
    return drawn;
}

Cycles
CoreHierarchy::replayDrawn(Cycles now, std::span<const MemAccess> drawn)
{
    // The fill masks are fixed for the whole call unless a Primary
    // call starts while the harvest ways are still hidden.
    const bool fixed_masks = harvest_mode_ || !cfg_.partitioning ||
                             now >= harvest_visible_at_;
    const bool own_lease = lease_l3_ && lease_l3_mask_ && lease_l3_ == l3_;
    if (fixed_masks && !cfg_.infinite && !own_lease)
        return replayPasses(now, drawn);
    const unsigned sampling = std::max(1u, cfg_.accessWeight);
    Cycles t = now;
    for (const MemAccess &a : drawn)
        t += sampling * access(t, a);
    return t - now;
}

Cycles
CoreHierarchy::replayPasses(Cycles now, std::span<const MemAccess> drawn)
{
    const auto n = static_cast<std::uint32_t>(drawn.size());
    HH_PROF_SCOPE_N(prof, "cache.hierarchy_access", n);
    accesses_ += n;
    ReplayScratch &s = replayScratch();
    for (auto *v : {&s.pages, &s.lines})
        v->resize(n);
    s.sharedFlags.resize(n);
    s.flags.resize(n);
    s.lat.resize(n);
    for (auto *v : {&s.instr, &s.data, &s.tlbMiss, &s.walk, &s.instrMiss,
                    &s.dataMiss, &s.l1Miss, &s.l2Miss, &s.l3Miss,
                    &s.memMiss})
        v->resize(n);
    for (auto i = static_cast<std::uint32_t>(s.all.size()); i < n; ++i)
        s.all.push_back(i);

    // Keys, flags and the latency every access pays: the L1 TLB and
    // its L1. Instruction pages always carry Shared=1 (§4.2.3).
    const Cycles l1i_lat = l1i_->geometry().latency;
    const Cycles l1d_lat = l1d_->geometry().latency;
    const Cycles tlb_lat = l1tlb_->geometry().latency;
    std::uint32_t n_instr = 0, n_data = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        const MemAccess &a = drawn[i];
        const bool shared = a.isInstr ? true : a.shared;
        s.pages[i] = a.page;
        s.lines[i] = a.page * kLinesPerPage + (a.line % kLinesPerPage);
        s.sharedFlags[i] = shared ? SetAssocArray::kRunShared : 0;
        s.flags[i] = static_cast<std::uint8_t>(
            s.sharedFlags[i] | (a.isInstr ? SetAssocArray::kRunInstr : 0));
        s.lat[i] = tlb_lat + (a.isInstr ? l1i_lat : l1d_lat);
        if (a.isInstr)
            s.instr[n_instr++] = i;
        else
            s.data[n_data++] = i;
    }
    const auto charge = [&](const std::uint32_t *list, std::uint32_t m,
                            Cycles c) {
        for (std::uint32_t k = 0; k < m; ++k)
            s.lat[list[k]] += c;
    };

    // -------- Address translation --------
    const std::uint32_t tlb_misses = l1tlb_->probeRun(
        s.pages.data(), s.all.data(), n, s.sharedFlags.data(),
        allowedMask(*l1tlb_, now), s.tlbMiss.data());
    charge(s.tlbMiss.data(), tlb_misses, l2tlb_->geometry().latency);
    const std::uint32_t walks = l2tlb_->probeRun(
        s.pages.data(), s.tlbMiss.data(), tlb_misses, s.sharedFlags.data(),
        allowedMask(*l2tlb_, now), s.walk.data());
    charge(s.walk.data(), walks, cfg_.pageWalk);

    // -------- Data/instruction path --------
    const std::uint32_t instr_misses = l1i_->probeRun(
        s.lines.data(), s.instr.data(), n_instr, s.flags.data(),
        allowedMask(*l1i_, now), s.instrMiss.data());
    const std::uint32_t data_misses = l1d_->probeRun(
        s.lines.data(), s.data.data(), n_data, s.flags.data(),
        allowedMask(*l1d_, now), s.dataMiss.data());
    // L2 sees both L1s' misses in access order.
    const std::uint32_t l1_misses = static_cast<std::uint32_t>(
        std::merge(s.instrMiss.begin(), s.instrMiss.begin() + instr_misses,
                   s.dataMiss.begin(), s.dataMiss.begin() + data_misses,
                   s.l1Miss.begin()) -
        s.l1Miss.begin());
    charge(s.l1Miss.data(), l1_misses, l2_->geometry().latency);
    std::uint32_t misses = l2_->probeRun(
        s.lines.data(), s.l1Miss.data(), l1_misses, s.flags.data(),
        allowedMask(*l2_, now), s.l2Miss.data());
    std::uint32_t *missed = s.l2Miss.data();

    if (l3_) {
        charge(missed, misses, l3_->geometry().latency);
        // Ways leased cross-VM (the L3 partition's harvest mask) are
        // reserved for the borrower; the owner fills around them.
        const WayMask own = l3_->allWays() & ~l3_->harvestWays();
        misses = l3_->probeRun(s.lines.data(), missed, misses,
                               s.sharedFlags.data(),
                               own ? own : l3_->allWays(),
                               s.l3Miss.data());
        missed = s.l3Miss.data();
    }
    // Leased ways borrowed from another VM's partition: no extra
    // latency (see access()).
    if (lease_l3_ && lease_l3_mask_) {
        misses = lease_l3_->probeRun(s.lines.data(), missed, misses,
                                     s.sharedFlags.data(), lease_l3_mask_,
                                     s.memMiss.data());
        missed = s.memMiss.data();
    }

    // -------- DRAM, in access order along the cursor --------
    const unsigned sampling = std::max(1u, cfg_.accessWeight);
    Cycles t = now;
    std::uint32_t next = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        Cycles lat = s.lat[i];
        if (next < misses && missed[next] == i) {
            ++next;
            lat += dram_ ? dram_->access(t, s.lines[i], cfg_.accessWeight)
                         : kFlatDramLatency;
        }
        t += sampling * lat;
    }
    return t - now;
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
