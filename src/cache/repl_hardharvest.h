/**
 * @file
 * The HardHarvest replacement policy (paper Algorithm 1, Section
 * 4.2.3, with the priority-multiplexer formulation of Section 4.2.4
 * and the eviction-candidate restriction).
 *
 * Intent: steer Shared entries toward the Non-Harvest ways (state
 * that survives harvesting) and Private entries toward the Harvest
 * ways, while restricting victim choice among valid entries to the M
 * least-recently-used ways of the set ("eviction candidates") so
 * popular private data is not starved of associativity.
 */

#ifndef HH_CACHE_REPL_HARDHARVEST_H
#define HH_CACHE_REPL_HARDHARVEST_H

#include "cache/replacement.h"

namespace hh::cache {

/**
 * Algorithm 1 of the paper.
 *
 * Victim priority for an incoming *shared* entry:
 *   1. Invalid and Non-Harvest way
 *   2. Invalid way
 *   3. Non-Harvest way holding a private entry
 *   4. Harvest way holding a private entry
 *   5. any way (all-shared fallback; LRU picks)
 *
 * Victim priority for an incoming *private* entry:
 *   1. Invalid and Harvest way
 *   2. Invalid way
 *   3. Harvest way holding a private entry
 *   4. Non-Harvest way holding a private entry
 *   5. any way (all-shared fallback; LRU picks)
 *
 * Classes 3-5 only consider the ctx.candidates (M) least-recently-used
 * allowed ways; within a class LRU breaks ties. Class 5's LRU way is
 * always a candidate, so the ladder never runs dry.
 * Invalid ways (classes 1-2) ignore the candidate restriction, as
 * taking an empty slot evicts nothing.
 */
class HardHarvestPolicy : public ReplacementPolicy
{
  public:
    /** The victim, inline for the array's probe loop. */
    static unsigned
    choose(const SetContext &ctx, bool incoming_shared)
    {
        // Private entries are the evictable ones (classes 3-4).
        return detail::steeredVictim(ctx, incoming_shared,
                                     ctx.validMask & ~ctx.sharedMask);
    }

    unsigned
    victim(const SetContext &ctx, bool incoming_shared) override
    {
        return detail::checkedVictim(ctx, choose(ctx, incoming_shared),
                                     "HardHarvestPolicy");
    }
    const char *name() const override { return "HardHarvest"; }
    bool hasAccessHooks() const override { return false; }
};

} // namespace hh::cache

#endif // HH_CACHE_REPL_HARDHARVEST_H
