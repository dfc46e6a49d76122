#include "cache/replacement.h"

#include "cache/repl_cdp.h"
#include "cache/repl_hardharvest.h"
#include "cache/repl_lru.h"
#include "cache/repl_rrip.h"
#include "sim/log.h"

namespace hh::cache {

namespace detail {

unsigned
steeredVictim(const SetContext &ctx, bool incoming_shared,
              WayMask evictable, const char *who)
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
    if (v >= ctx.ways)
        hh::sim::panic(who, ": empty allowed mask");
    return v;
}

} // namespace detail

std::unique_ptr<ReplacementPolicy>
makePolicy(ReplKind kind)
{
    switch (kind) {
      case ReplKind::LRU:
        return std::make_unique<LruPolicy>();
      case ReplKind::RRIP:
        return std::make_unique<RripPolicy>();
      case ReplKind::HardHarvest:
        return std::make_unique<HardHarvestPolicy>();
      case ReplKind::CDP:
        return std::make_unique<CdpPolicy>();
      case ReplKind::Belady:
        hh::sim::fatal("Belady requires an oracle; construct "
                       "BeladyPolicy directly (see repl_belady.h)");
    }
    hh::sim::panic("makePolicy: unknown kind");
}

} // namespace hh::cache
