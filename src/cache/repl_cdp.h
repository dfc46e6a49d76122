/**
 * @file
 * Code-Data-Prioritization (CDP) style replacement.
 *
 * Section 6.3 of the paper evaluates whether prioritizing
 * *instruction* pages over data pages (as Intel CAT's CDP does)
 * beats the HardHarvest shared/private distinction — and finds it
 * does not (it *increases* tail latency by 8%). We implement the
 * CDP-style policy so that negative result can be reproduced: the
 * victim selection protects instruction entries and considers data
 * entries (shared or private alike) first.
 */

#ifndef HH_CACHE_REPL_CDP_H
#define HH_CACHE_REPL_CDP_H

#include "cache/replacement.h"

namespace hh::cache {

/**
 * CDP: instructions beat data; region preference as in HardHarvest.
 *
 * The array records each entry's instruction flag at fill time; the
 * policy reads it as ctx.instrMask.
 */
class CdpPolicy : public ReplacementPolicy
{
  public:
    /** The victim, inline for the array's probe loop. */
    static unsigned
    choose(const SetContext &ctx, bool incoming_shared)
    {
        // CDP's defining choice: protect instruction entries; evict
        // data entries first, regardless of their shared/private
        // nature.
        return detail::steeredVictim(ctx, incoming_shared,
                                     ctx.validMask & ~ctx.instrMask);
    }

    unsigned
    victim(const SetContext &ctx, bool incoming_shared) override
    {
        return detail::checkedVictim(ctx, choose(ctx, incoming_shared),
                                     "CdpPolicy");
    }
    const char *name() const override { return "CDP"; }
    bool hasAccessHooks() const override { return false; }
};

} // namespace hh::cache

#endif // HH_CACHE_REPL_CDP_H
