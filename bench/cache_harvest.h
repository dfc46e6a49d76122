/**
 * @file
 * Cache-capacity harvesting sweep: the same cluster scale run three
 * ways to isolate the second harvest dimension (src/lease/):
 *
 *   core-only   HardHarvest-Block, cache leasing off — the paper's
 *               core-harvesting baseline.
 *   cache-only  NoHarvest with cache leasing on — cores never move,
 *               so any batch gain comes solely from leased L3 ways
 *               reached through the Harvest VM's overflow probe.
 *   combined    HardHarvest-Block with cache leasing on — both
 *               harvest dimensions at once.
 *
 * Rendered as a batch-throughput vs request-P99 frontier table plus
 * machine-checked `cache-check` lines:
 *
 *   cache-check combined>=core-only: PASS|FAIL
 *       Adding the cache dimension must not lose batch throughput
 *       against core harvesting alone at this scale.
 *   cache-check combined-p99-budget: PASS|FAIL
 *       ... and must stay within a 10% request-P99 budget of the
 *       core-only baseline (the "equal tail budget" framing).
 *   cache-check lease-activity: PASS|FAIL
 *       The cache modes actually granted leases (way-cycles > 0);
 *       the sweep is not vacuous.
 *   cache-check core-only-no-leases: PASS|FAIL
 *       The baseline granted none — leasing is opt-in.
 *   cache-check audit-clean: PASS|FAIL
 *       Every mode ran under the invariant auditor (including the
 *       "no harvested line outlives its lease" sweep) violation-free.
 *
 * Run by `repro_all --cache-harvest`; CI greps the PASS lines.
 */

#ifndef HH_BENCH_CACHE_HARVEST_H
#define HH_BENCH_CACHE_HARVEST_H

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "policy_frontier.h"

namespace hh::bench {

/** One harvesting mode's cluster run in the cache sweep. */
struct CachePoint
{
    std::string mode;
    hh::cluster::ClusterResults results;
};

/**
 * Run the three-mode sweep over the same scale, seed and worker
 * count. Every mode runs with the invariant auditor on so the lease
 * invariant ("no harvested line outlives its lease") is swept live.
 */
inline std::vector<CachePoint>
runCacheHarvestSweep(const BenchScale &scale, unsigned workers)
{
    struct Mode
    {
        const char *name;
        hh::cluster::SystemKind kind;
        bool lend;
    };
    static const Mode kModes[] = {
        {"core-only", hh::cluster::SystemKind::HardHarvestBlock,
         false},
        {"cache-only", hh::cluster::SystemKind::NoHarvest, true},
        {"combined", hh::cluster::SystemKind::HardHarvestBlock, true},
    };
    std::vector<CachePoint> points;
    for (const Mode &m : kModes) {
        hh::cluster::SystemConfig cfg =
            hh::cluster::makeSystem(m.kind);
        applyScale(cfg, scale);
        cfg.cacheLendEnabled = m.lend;
        cfg.auditEnabled = true;
        std::printf("running mode=%s...\n", m.name);
        points.push_back({m.name,
                          hh::cluster::runCluster(cfg, scale.servers,
                                                  scale.seed,
                                                  workers)});
    }
    return points;
}

/** The frontier table: throughput vs tail latency per mode. */
inline void
printCacheHarvest(const std::vector<CachePoint> &points)
{
    std::printf("%-12s %12s %10s %10s %8s %8s %8s %10s\n", "mode",
                "batchTput", "p99[ms]", "p50[ms]", "loans", "leases",
                "recalls", "flushed");
    for (const auto &p : points) {
        std::printf(
            "%-12s %12.2f %10.3f %10.3f %8llu %8llu %8llu %10llu\n",
            p.mode.c_str(), meanBatchThroughput(p.results),
            p.results.avgP99Ms(), p.results.avgP50Ms(),
            static_cast<unsigned long long>(p.results.coreLoans),
            static_cast<unsigned long long>(p.results.leaseGrants),
            static_cast<unsigned long long>(
                p.results.leaseRecalls + p.results.leaseExpiries),
            static_cast<unsigned long long>(
                p.results.leaseFlushedLines));
    }
}

/**
 * The cache-harvest invariants; prints one grep-able line each and
 * returns the number of failures.
 */
inline int
checkCacheHarvest(const std::vector<CachePoint> &points)
{
    const CachePoint *core = nullptr;
    const CachePoint *cache = nullptr;
    const CachePoint *both = nullptr;
    for (const auto &p : points) {
        if (p.mode == "core-only")
            core = &p;
        else if (p.mode == "cache-only")
            cache = &p;
        else if (p.mode == "combined")
            both = &p;
    }
    int failures = 0;
    if (core && both) {
        const double c = meanBatchThroughput(core->results);
        const double b = meanBatchThroughput(both->results);
        bool ok = b >= c;
        std::printf("cache-check combined>=core-only: %s "
                    "(%.2f vs %.2f tasks/s)\n",
                    ok ? "PASS" : "FAIL", b, c);
        failures += ok ? 0 : 1;

        const double cp = core->results.avgP99Ms();
        const double bp = both->results.avgP99Ms();
        ok = bp <= cp * 1.10;
        std::printf("cache-check combined-p99-budget: %s "
                    "(%.3f vs %.3f ms, +10%% budget)\n",
                    ok ? "PASS" : "FAIL", bp, cp);
        failures += ok ? 0 : 1;
    }
    if (cache && both) {
        const bool ok = cache->results.leaseGrants > 0 &&
                        cache->results.leaseWayCycles > 0 &&
                        both->results.leaseGrants > 0 &&
                        both->results.leaseWayCycles > 0;
        std::printf("cache-check lease-activity: %s "
                    "(cache-only grants=%llu, combined grants=%llu)\n",
                    ok ? "PASS" : "FAIL",
                    static_cast<unsigned long long>(
                        cache->results.leaseGrants),
                    static_cast<unsigned long long>(
                        both->results.leaseGrants));
        failures += ok ? 0 : 1;
    }
    if (core) {
        const bool ok = core->results.leaseGrants == 0 &&
                        core->results.leaseWayCycles == 0;
        std::printf("cache-check core-only-no-leases: %s\n",
                    ok ? "PASS" : "FAIL");
        failures += ok ? 0 : 1;
    }
    std::uint64_t audits = 0, violations = 0;
    for (const auto &p : points) {
        audits += p.results.auditsRun;
        violations += p.results.auditViolations;
    }
    {
        const bool ok = audits > 0 && violations == 0;
        std::printf("cache-check audit-clean: %s "
                    "(audits=%llu, violations=%llu)\n",
                    ok ? "PASS" : "FAIL",
                    static_cast<unsigned long long>(audits),
                    static_cast<unsigned long long>(violations));
        failures += ok ? 0 : 1;
    }
    return failures;
}

} // namespace hh::bench

#endif // HH_BENCH_CACHE_HARVEST_H
