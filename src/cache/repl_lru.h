/**
 * @file
 * Vanilla least-recently-used replacement (the paper's baseline).
 */

#ifndef HH_CACHE_REPL_LRU_H
#define HH_CACHE_REPL_LRU_H

#include "cache/replacement.h"

namespace hh::cache {

/**
 * LRU: evict the least-recently-used allowed way; invalid ways first.
 */
class LruPolicy : public ReplacementPolicy
{
  public:
    /**
     * The victim, inline for the array's probe loop: the lowest
     * invalid allowed way, else the LRU allowed way; ctx.ways or more
     * when the allowed mask is empty.
     */
    static unsigned
    choose(const SetContext &ctx, bool incoming_shared)
    {
        (void)incoming_shared;
        const WayMask allowed = ctx.allowedMask & ctx.wayMask();
        const WayMask inv = allowed & ~ctx.validMask;
        if (inv)
            return static_cast<unsigned>(std::countr_zero(inv));
        return detail::lruWay(ctx.rank, allowed);
    }

    unsigned
    victim(const SetContext &ctx, bool incoming_shared) override
    {
        return detail::checkedVictim(ctx, choose(ctx, incoming_shared),
                                     "LruPolicy");
    }
    const char *name() const override { return "LRU"; }
    bool hasAccessHooks() const override { return false; }
};

} // namespace hh::cache

#endif // HH_CACHE_REPL_LRU_H
