/**
 * @file
 * Service-graph fleet bench: one multi-tier RPC-DAG fleet run
 * (src/svc/) with the fleet harvesting-economics row, the per-tier
 * latency breakdown, and the bounded-footprint diagnostics, plus two
 * CI-facing modes:
 *
 *   --serialized <out>   Write FleetResults::serialized() to <out>;
 *                        CI `cmp`s the files from different worker
 *                        counts to enforce bit-identity.
 *   --resume-check       Re-run the same fleet, checkpointing at half
 *                        the simulated span and resuming, and require
 *                        the resumed results byte-identical to the
 *                        straight run (exit 1 otherwise).
 *
 * Not a paper figure: HardHarvest evaluates single-server
 * microservice mixes; this bench is repo-specific evidence that core
 * harvesting holds up when requests fan out across servers.
 *
 * The graph is layered (`makeLayeredGraphSpec`): --depth synchronous
 * tiers over --servers servers with --fanout children per call, or an
 * explicit topology via --graph <spec-file>. HH_REQUESTS scales the
 * per-VM arrival budget as in every bench.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "cluster/telemetry_hub.h"
#include "service_graph.h"
#include "sim/parse.h"
#include "svc/fleet.h"

namespace {

using namespace hh::bench;

struct GraphArgs
{
    unsigned depth = 3;
    unsigned fanout = 2;
    unsigned servers = 16;
    std::string policy = "static";
    unsigned workers = 0;
    std::string graphPath;
    std::string serializedPath;
    std::string checkpointPath = "graph_checkpoint.hhcp";
    bool resumeCheck = false;
};

[[noreturn]] void
usage(const char *argv0)
{
    hh::sim::fatal("usage: ", argv0,
                   " [--depth N] [--fanout N] [--servers N]"
                   " [--policy name] [--workers N] [--graph spec-file]"
                   " [--serialized out] [--resume-check]"
                   " [--checkpoint-file path]");
}

GraphArgs
parseGraphArgs(int argc, char **argv)
{
    GraphArgs a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        unsigned *count = arg == "--depth"     ? &a.depth
                          : arg == "--fanout"  ? &a.fanout
                          : arg == "--servers" ? &a.servers
                          : arg == "--workers" ? &a.workers
                                               : nullptr;
        if (count && i + 1 < argc) {
            if (!hh::sim::parseUnsigned(argv[++i], count))
                usage(argv[0]);
        } else if (arg == "--policy" && i + 1 < argc) {
            a.policy = argv[++i];
        } else if (arg == "--graph" && i + 1 < argc) {
            a.graphPath = argv[++i];
        } else if (arg == "--serialized" && i + 1 < argc) {
            a.serializedPath = argv[++i];
        } else if (arg == "--checkpoint-file" && i + 1 < argc) {
            a.checkpointPath = argv[++i];
        } else if (arg == "--resume-check") {
            a.resumeCheck = true;
        } else {
            usage(argv[0]);
        }
    }
    return a;
}

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        hh::sim::fatal("cannot read ", path);
    std::string text;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return text;
}

} // namespace

int
main(int argc, char **argv)
{
    const GraphArgs args = parseGraphArgs(argc, argv);
    const BenchScale scale(/*def_servers=*/2, /*def_requests=*/48);

    hh::svc::ServiceGraphSpec spec;
    if (!args.graphPath.empty()) {
        std::string err;
        if (!hh::svc::parseGraphSpec(readFile(args.graphPath), &spec,
                                     &err))
            hh::sim::fatal(args.graphPath, ": ", err);
    } else {
        spec = hh::svc::makeLayeredGraphSpec(args.depth, args.fanout,
                                             args.servers);
    }

    printHeader("fig_service_graph",
                "multi-tier RPC DAGs over the fleet fabric");
    std::printf("graph=%s servers=%u depth=%u policy=%s "
                "requests/VM=%u seed=%llu\n",
                spec.name.c_str(), spec.servers, spec.depth(),
                args.policy.c_str(), scale.requests,
                static_cast<unsigned long long>(scale.seed));

    hh::cluster::SystemConfig cfg = graphConfig(scale);
    cfg.policy = args.policy;
    const hh::svc::FleetResults res =
        hh::svc::runFleet(spec, cfg, scale.seed, args.workers);

    std::printf("\n");
    printGraphEconomics({{args.policy, spec.depth(), res}});
    std::printf("\nper-tier breakdown:\n");
    std::printf("%-6s %-10s %12s %10s %10s %10s\n", "tier",
                "service", "nodes", "sheds", "p50[us]", "p99[us]");
    for (std::size_t t = 0; t < res.tiers.size(); ++t) {
        const auto &tr = res.tiers[t];
        std::printf("%-6zu %-10s %12llu %10llu %10.1f %10.1f\n", t,
                    tr.service.c_str(),
                    static_cast<unsigned long long>(tr.nodes),
                    static_cast<unsigned long long>(tr.sheds),
                    tr.p50Us, tr.p99Us);
    }
    std::printf("\nroots done=%llu shed=%llu  e2e count=%llu "
                "p50=%.1fus p99=%.1fus\n",
                static_cast<unsigned long long>(res.rootsDone),
                static_cast<unsigned long long>(res.rootsShed),
                static_cast<unsigned long long>(res.e2eCount),
                res.e2eP50Us, res.e2eP99Us);
    std::printf("footprint: windows=%llu peakLiveNodes/server=%llu "
                "engineBytes/server=%llu\n",
                static_cast<unsigned long long>(res.windows),
                static_cast<unsigned long long>(res.maxPeakLiveNodes),
                static_cast<unsigned long long>(
                    res.maxFootprintBytes));

    if (!args.serializedPath.empty()) {
        if (!hh::cluster::writeTextFile(args.serializedPath,
                                        res.serialized()))
            hh::sim::fatal("cannot write ", args.serializedPath);
        std::printf("serialized: %s\n", args.serializedPath.c_str());
    }

    int rc = 0;
    if (args.resumeCheck) {
        // Checkpoint a fresh fleet mid-run (half the simulated span),
        // resume it, and require byte-identical results.
        const auto mid =
            hh::sim::msToCycles(res.elapsedSec * 1000.0 / 2.0);
        std::string err;
        if (!hh::svc::checkpointFleetAt(spec, cfg, scale.seed,
                                        args.workers, mid,
                                        args.checkpointPath, &err))
            hh::sim::fatal("checkpoint failed: ", err);
        const auto resumed = hh::svc::resumeFleet(
            args.checkpointPath, spec, cfg, scale.seed, args.workers,
            &err);
        if (!resumed)
            hh::sim::fatal("resume failed: ", err);
        const bool ok = resumed->serialized() == res.serialized();
        std::printf("graph-check checkpoint-resume: %s\n",
                    ok ? "PASS" : "FAIL");
        if (!ok)
            rc = 1;
    }
    return rc;
}
