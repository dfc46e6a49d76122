#include "cache/repl_hardharvest.h"

namespace hh::cache {

unsigned
HardHarvestPolicy::victim(const SetContext &ctx, bool incoming_shared)
{
    // Private entries are the evictable ones (classes 3-4).
    return detail::steeredVictim(ctx, incoming_shared,
                                 ctx.validMask & ~ctx.sharedMask,
                                 "HardHarvestPolicy");
}

} // namespace hh::cache
