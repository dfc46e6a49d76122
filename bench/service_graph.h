/**
 * @file
 * Shared service-graph fleet sweep: layered RPC-DAG fleets (src/svc/)
 * over the two harvest policies, rendered as a fleet
 * harvesting-economics table plus one machine-checked invariant per
 * policy:
 *
 *   graph-check depth-monotone@<policy>: PASS|FAIL
 *       Deeper graphs must not get *faster*: each synchronous tier
 *       adds two cross-server RPC hops to every request's critical
 *       path, so the end-to-end P99 must be non-decreasing in graph
 *       depth. A FAIL means tree latencies are being dropped or
 *       mis-attributed somewhere between the RPC engine and the
 *       fleet aggregation.
 *
 * Used by fig_service_graph and `repro_all --graphs` so both print
 * byte-identical tables; CI greps the PASS lines.
 */

#ifndef HH_BENCH_SERVICE_GRAPH_H
#define HH_BENCH_SERVICE_GRAPH_H

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "svc/fleet.h"

namespace hh::bench {

/** One fleet run in the graph sweep. */
struct GraphPoint
{
    std::string policy;
    unsigned depth = 0;
    hh::svc::FleetResults results;
};

/** The graph-mode base configuration at this scale. */
inline hh::cluster::SystemConfig
graphConfig(const BenchScale &scale)
{
    hh::cluster::SystemConfig cfg = hh::cluster::makeSystem(
        hh::cluster::SystemKind::HardHarvestBlock);
    applyScale(cfg, scale);
    return cfg;
}

/**
 * Run the sweep: one fleet per (policy, depth) over layered graphs
 * with the given fanout, all sharing scale, seed, and worker count.
 */
inline std::vector<GraphPoint>
runGraphSweep(const BenchScale &scale, unsigned servers,
              const std::vector<unsigned> &depths, unsigned fanout,
              const std::vector<std::string> &policies,
              unsigned workers)
{
    std::vector<GraphPoint> points;
    for (const std::string &policy : policies) {
        for (unsigned depth : depths) {
            const hh::svc::ServiceGraphSpec spec =
                hh::svc::makeLayeredGraphSpec(depth, fanout, servers);
            hh::cluster::SystemConfig cfg = graphConfig(scale);
            cfg.policy = policy;
            std::printf("running graph policy=%s depth=%u "
                        "(%u servers)...\n",
                        policy.c_str(), depth, servers);
            points.push_back(
                {policy, depth,
                 hh::svc::runFleet(spec, cfg, scale.seed, workers)});
        }
    }
    return points;
}

/**
 * The fleet harvesting-economics table: end-to-end tail latency vs
 * batch throughput and loan/reclaim traffic per (policy, depth).
 */
inline void
printGraphEconomics(const std::vector<GraphPoint> &points)
{
    std::printf("%-12s %5s %10s %10s %12s %8s %8s %6s %8s %9s\n",
                "policy", "depth", "e2eP99[us]", "fleetP99us",
                "batchTput", "loans", "reclaims", "util", "sheds",
                "wire");
    for (const auto &p : points) {
        const auto &r = p.results;
        // Shed roots are already counted in tiers[0].sheds.
        std::uint64_t sheds = 0;
        for (const auto &t : r.tiers)
            sheds += t.sheds;
        std::printf("%-12s %5u %10.1f %10.1f %12.2f %8llu %8llu "
                    "%6.3f %8llu %9llu\n",
                    p.policy.c_str(), p.depth, r.e2eP99Us,
                    r.fleetP99Us, r.batchThroughput,
                    static_cast<unsigned long long>(r.coreLoans),
                    static_cast<unsigned long long>(r.coreReclaims),
                    r.avgUtilization,
                    static_cast<unsigned long long>(sheds),
                    static_cast<unsigned long long>(r.wireMessages));
    }
}

/**
 * Machine check: within each policy, end-to-end P99 must be
 * non-decreasing in depth. Returns the number of failing policies.
 */
inline int
checkGraphMonotone(const std::vector<GraphPoint> &points)
{
    int failures = 0;
    std::vector<std::string> seen;
    for (const auto &p : points) {
        bool known = false;
        for (const auto &s : seen)
            known = known || s == p.policy;
        if (!known)
            seen.push_back(p.policy);
    }
    for (const auto &policy : seen) {
        bool ok = true;
        const GraphPoint *prev = nullptr;
        for (const auto &p : points) {
            if (p.policy != policy)
                continue;
            if (prev && prev->depth < p.depth &&
                p.results.e2eP99Us < prev->results.e2eP99Us) {
                ok = false;
                std::printf("  depth %u e2eP99=%.1fus < depth %u "
                            "e2eP99=%.1fus\n",
                            p.depth, p.results.e2eP99Us, prev->depth,
                            prev->results.e2eP99Us);
            }
            prev = &p;
        }
        std::printf("graph-check depth-monotone@%s: %s\n",
                    policy.c_str(), ok ? "PASS" : "FAIL");
        if (!ok)
            ++failures;
    }
    return failures;
}

} // namespace hh::bench

#endif // HH_BENCH_SERVICE_GRAPH_H
