/**
 * @file
 * Static RRIP (SRRIP) replacement, the advanced baseline of Fig 14.
 *
 * 2-bit re-reference prediction values: entries are inserted with
 * RRPV = 2 ("long") and promoted to 0 on a hit. The victim is the way
 * with the largest RRPV, ties broken by LRU; unlike textbook SRRIP
 * (Jaleel et al., ISCA 2010), RRPVs are never aged toward 3.
 */

#ifndef HH_CACHE_REPL_RRIP_H
#define HH_CACHE_REPL_RRIP_H

#include "cache/replacement.h"

namespace hh::cache {

/**
 * SRRIP with 2-bit RRPVs.
 */
class RripPolicy : public ReplacementPolicy
{
  public:
    unsigned victim(const SetContext &ctx, bool incoming_shared) override;
    void touch(std::uint8_t &rrpv) override;
    void fill(std::uint8_t &rrpv) override;
    const char *name() const override { return "RRIP"; }

  private:
    static constexpr std::uint8_t kInsertRrpv = 2;
};

} // namespace hh::cache

#endif // HH_CACHE_REPL_RRIP_H
