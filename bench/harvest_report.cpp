/**
 * @file
 * Harvesting-economics report driver (PR 7).
 *
 * Runs the cluster with the telemetry plane enabled (or resumes a
 * checkpointed run) and turns the per-server ObservationView payloads
 * into the fleet-level TelemetryHub products: an append-only
 * economics JSONL, Chrome counter tracks, and a one-page plain-text
 * report. Every output is byte-identical for any worker count and
 * across checkpoint save/load/resume — the property the telemetry
 * determinism CI job asserts with `cmp`.
 *
 *   harvest_report [--jsonl out.jsonl] [--report out.txt]
 *                  [--counters out.json] [--period-ms f]
 *                  [--workers n] [--checkpoint-every ms]
 *                  [--checkpoint-file path]
 *
 * Scale comes from the usual HH_REQUESTS / HH_SERVERS / HH_SAMPLING /
 * HH_SEED environment knobs.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.h"
#include "cluster/telemetry_hub.h"
#include "sim/parse.h"

namespace {

struct Args
{
    std::string jsonlPath = "harvest_telemetry.jsonl";
    std::string reportPath;   //!< empty: stdout only
    std::string countersPath; //!< empty: not written
    double periodMs = 1.0;
    unsigned workers = 0;
    hh::bench::ObsOptions obs; //!< checkpoint knobs only
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--jsonl out.jsonl] [--report out.txt]"
                 " [--counters out.json] [--period-ms f]"
                 " [--workers n] [--checkpoint-every ms]"
                 " [--checkpoint-file path]\n",
                 argv0);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--jsonl" && i + 1 < argc) {
            a.jsonlPath = argv[++i];
        } else if (arg == "--report" && i + 1 < argc) {
            a.reportPath = argv[++i];
        } else if (arg == "--counters" && i + 1 < argc) {
            a.countersPath = argv[++i];
        } else if (arg == "--period-ms" && i + 1 < argc) {
            a.periodMs = std::strtod(argv[++i], nullptr);
            // Rejects nan too; a period that rounds to 0 cycles would
            // re-arm the telemetry tick at the same instant forever.
            if (!(a.periodMs > 0) ||
                hh::sim::msToCycles(a.periodMs) == 0) {
                std::fprintf(stderr, "--period-ms must be a positive "
                                     "period of at least one cycle\n");
                usage(argv[0]);
            }
        } else if (arg == "--workers" && i + 1 < argc) {
            if (!hh::sim::parseUnsigned(argv[++i], &a.workers))
                usage(argv[0]);
        } else if (arg == "--checkpoint-every" && i + 1 < argc) {
            a.obs.checkpointEveryMs = std::strtod(argv[++i], nullptr);
        } else if (arg == "--checkpoint-file" && i + 1 < argc) {
            a.obs.checkpointPath = argv[++i];
        } else {
            usage(argv[0]);
        }
    }
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const hh::bench::BenchScale scale;

    hh::cluster::SystemConfig cfg =
        hh::cluster::makeSystem(hh::cluster::SystemKind::HardHarvestBlock);
    hh::bench::applyScale(cfg, scale);
    cfg.telemetryEnabled = true;
    cfg.telemetryPeriod = hh::sim::msToCycles(args.periodMs);

    hh::cluster::ClusterResults res = hh::bench::runClusterResumable(
        cfg, scale.servers, scale.seed, args.workers, args.obs);

    const hh::cluster::TelemetryHub hub(cfg,
                                        std::move(res.serverTelemetry));

    int rc = 0;
    if (!hh::cluster::writeTextFile(args.jsonlPath, hub.jsonl())) {
        hh::sim::warn("cannot write ", args.jsonlPath);
        rc = 1;
    } else {
        std::printf("telemetry: %s (%zu epochs)\n",
                    args.jsonlPath.c_str(), hub.timeline().size());
    }
    if (!args.countersPath.empty()) {
        if (!hh::cluster::writeTextFile(args.countersPath,
                                        hub.counterTrackJson())) {
            hh::sim::warn("cannot write ", args.countersPath);
            rc = 1;
        } else {
            std::printf("counters: %s\n", args.countersPath.c_str());
        }
    }
    const std::string report = hub.report();
    if (!args.reportPath.empty()) {
        if (!hh::cluster::writeTextFile(args.reportPath, report)) {
            hh::sim::warn("cannot write ", args.reportPath);
            rc = 1;
        } else {
            std::printf("report: %s\n", args.reportPath.c_str());
        }
    }
    std::fputs(report.c_str(), stdout);
    return rc;
}
