#include "cache/repl_lru.h"

#include "sim/log.h"

namespace hh::cache {

unsigned
LruPolicy::victim(const SetContext &ctx, bool incoming_shared)
{
    (void)incoming_shared;
    const WayMask allowed = ctx.allowedMask & ctx.wayMask();
    const WayMask inv = allowed & ~ctx.validMask;
    if (inv)
        return static_cast<unsigned>(std::countr_zero(inv));
    const unsigned v = detail::lruWay(ctx.rank, allowed);
    if (v >= ctx.ways)
        hh::sim::panic("LruPolicy: empty allowed mask");
    return v;
}

} // namespace hh::cache
