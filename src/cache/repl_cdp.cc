#include "cache/repl_cdp.h"

namespace hh::cache {

unsigned
CdpPolicy::victim(const SetContext &ctx, bool incoming_shared)
{
    // CDP's defining choice: protect instruction entries; evict data
    // entries first, regardless of their shared/private nature.
    return detail::steeredVictim(ctx, incoming_shared,
                                 ctx.validMask & ~ctx.instrMask,
                                 "CdpPolicy");
}

} // namespace hh::cache
