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
    const WayMask second_region = incoming_shared ? harvest : non_harvest;

    // Invalid slots, preferred region first. These are exempt from
    // the eviction-candidate restriction (nothing is evicted when
    // filling an empty slot).
    const WayMask inv = allowed & ~ctx.validMask;
    if (inv) {
        const WayMask preferred = inv & first_region;
        return static_cast<unsigned>(
            std::countr_zero(preferred ? preferred : inv));
    }

    // Unprotected candidates, region order set by the incoming
    // entry's type; then any candidate; then, for a degenerate
    // candidate mask (e.g. all candidates outside the allowed
    // region), plain LRU over the allowed ways.
    const WayMask cand = ctx.candidateMask & allowed;
    WayMask victims = cand & first_region & evictable;
    if (!victims)
        victims = cand & second_region & evictable;
    if (!victims)
        victims = cand;
    if (!victims)
        victims = allowed;

    const unsigned v = lruWay(ctx.rank, victims);
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
