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
    unsigned victim(const SetContext &ctx, bool incoming_shared) override;
    const char *name() const override { return "LRU"; }
    bool hasAccessHooks() const override { return false; }
};

} // namespace hh::cache

#endif // HH_CACHE_REPL_LRU_H
