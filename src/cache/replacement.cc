#include "cache/replacement.h"

#include "cache/repl_cdp.h"
#include "cache/repl_hardharvest.h"
#include "cache/repl_lru.h"
#include "cache/repl_rrip.h"
#include "sim/log.h"

namespace hh::cache {

namespace detail {

unsigned
checkedVictim(const SetContext &ctx, unsigned v, const char *who)
{
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
