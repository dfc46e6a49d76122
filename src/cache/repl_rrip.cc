#include "cache/repl_rrip.h"

#include "sim/log.h"

namespace hh::cache {

unsigned
RripPolicy::victim(const SetContext &ctx, bool incoming_shared)
{
    (void)incoming_shared;
    const WayMask allowed = ctx.allowedMask & ctx.wayMask();
    const WayMask inv = allowed & ~ctx.validMask;
    if (inv)
        return static_cast<unsigned>(std::countr_zero(inv));
    // The victim is the allowed way with the largest RRPV; ties go to
    // the least-recently-used (lowest-ranked) way. No RRPVs are aged:
    // a set whose ways all sit below the maximum RRPV evicts its
    // largest one as it stands.
    unsigned best = 64;
    int best_rrpv = -1;
    unsigned best_rank = ~0U;
    for (WayMask m = allowed; m; m &= m - 1) {
        const auto w = static_cast<unsigned>(std::countr_zero(m));
        const int rrpv = ctx.rrpv[w];
        if (rrpv > best_rrpv ||
            (rrpv == best_rrpv && ctx.rank[w] < best_rank)) {
            best_rrpv = rrpv;
            best_rank = ctx.rank[w];
            best = w;
        }
    }
    if (best >= ctx.ways)
        hh::sim::panic("RripPolicy: empty allowed mask");
    return best;
}

void
RripPolicy::touch(std::uint8_t &rrpv)
{
    rrpv = 0;
}

void
RripPolicy::fill(std::uint8_t &rrpv)
{
    rrpv = kInsertRrpv;
}

} // namespace hh::cache
