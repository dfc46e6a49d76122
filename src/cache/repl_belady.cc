#include "cache/repl_belady.h"

#include <algorithm>

#include "sim/log.h"

namespace hh::cache {

NextUseOracle::NextUseOracle(const std::vector<Addr> &trace)
{
    uses_.reserve(trace.size());
    for (std::uint64_t i = 0; i < trace.size(); ++i)
        uses_.emplace_back(trace[i], i);
    std::sort(uses_.begin(), uses_.end());
}

std::uint64_t
NextUseOracle::nextUse(Addr key, std::uint64_t pos) const
{
    // The first use after (key, pos) is key's next one, if it is key's.
    const auto it = std::upper_bound(uses_.begin(), uses_.end(),
                                     std::pair{key, pos});
    return it != uses_.end() && it->first == key ? it->second : kNever;
}

unsigned
BeladyPolicy::victim(const SetContext &ctx, bool incoming_shared)
{
    (void)incoming_shared;
    const WayMask allowed = ctx.allowedMask & ctx.wayMask();
    const WayMask inv = allowed & ~ctx.validMask;
    if (inv)
        return static_cast<unsigned>(std::countr_zero(inv));
    // Evict the way whose next use is farthest (never-used wins).
    unsigned best = 64;
    std::uint64_t best_next = 0;
    for (WayMask m = allowed; m; m &= m - 1) {
        const auto w = static_cast<unsigned>(std::countr_zero(m));
        const std::uint64_t nu = oracle_.nextUse(ctx.tags[w], pos_);
        if (best >= 64 || nu > best_next) {
            best = w;
            best_next = nu;
        }
        if (nu == NextUseOracle::kNever)
            break; // cannot do better
    }
    if (best >= ctx.ways)
        hh::sim::panic("BeladyPolicy: empty allowed mask");
    return best;
}

void
BeladyPolicy::touch(std::uint8_t &rrpv)
{
    (void)rrpv;
    ++pos_;
}

void
BeladyPolicy::fill(std::uint8_t &rrpv)
{
    (void)rrpv;
    ++pos_;
}

} // namespace hh::cache
