/**
 * @file
 * Cache-capacity harvesting frontier: batch throughput vs request
 * P99 for core-only / cache-only / combined harvesting over the same
 * cluster scale, plus the machine-checked `cache-check` invariants
 * (combined no worse than core-only on batch throughput within a 10%
 * P99 budget, lease activity present exactly where leasing is on,
 * auditor clean). See docs/CACHE_HARVEST.md.
 *
 * Not a paper figure: HardHarvest harvests cores only, so this sweep
 * is repo-specific evidence that way leasing composes with core
 * harvesting as a second, independent harvest dimension.
 *
 * HH_SERVERS selects how many of the 8 batch applications to run;
 * each mode point is one full audited cluster run.
 */

#include "cache_harvest.h"

int
main(int argc, char **argv)
{
    using namespace hh::bench;
    const BenchScale scale;
    const ObsSink sink(parseObsArgs(argc, argv));
    printHeader("fig_cache_harvest", "cache-capacity harvesting frontier");
    std::printf("servers=%u requests/VM=%u seed=%llu\n", scale.servers,
                scale.requests, static_cast<unsigned long long>(scale.seed));
    const auto points = runCacheHarvestSweep(scale, /*workers=*/0);
    std::printf("\n");
    printCacheHarvest(points);
    std::printf("\n");
    const int failures = checkCacheHarvest(points);
    const int sink_rc = sink.finish();
    return failures ? 1 : sink_rc;
}
