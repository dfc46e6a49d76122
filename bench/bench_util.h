/**
 * @file
 * Shared helpers for the benchmark binaries.
 *
 * Environment variables scale the runs:
 *   HH_REQUESTS  arrival budget per Primary VM   (default 400)
 *   HH_SERVERS   servers in cluster experiments  (default 2)
 *   HH_SAMPLING  memory-access sampling factor   (default 8)
 *   HH_SEED      experiment seed                 (default 1)
 */

#ifndef HH_BENCH_UTIL_H
#define HH_BENCH_UTIL_H

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "cluster/checkpoint.h"
#include "cluster/experiment.h"
#include "cluster/parallel.h"
#include "cluster/system_config.h"
#include "sim/log.h"
#include "sim/time.h"
#include "stats/sampler.h"
#include "trace/chrome_trace.h"

namespace hh::bench {

/** Read an environment variable as unsigned with a default. */
inline unsigned
envUnsigned(const char *name, unsigned def)
{
    const char *v = std::getenv(name);
    if (!v)
        return def;
    const long parsed = std::strtol(v, nullptr, 10);
    return parsed > 0 ? static_cast<unsigned>(parsed) : def;
}

/** Read an environment variable as double with a default. */
inline double
envDouble(const char *name, double def)
{
    const char *v = std::getenv(name);
    if (!v)
        return def;
    const double parsed = std::strtod(v, nullptr);
    return parsed > 0 ? parsed : def;
}

/**
 * Scale knobs shared by all benches. The environment always wins;
 * the constructor arguments only shift the defaults for benches that
 * want a different baseline (e.g. bench_speed runs all 8 servers), so
 * no binary parses HH_* on its own.
 */
struct BenchScale
{
    unsigned requests;
    unsigned servers;
    unsigned sampling;
    std::uint64_t seed;

    explicit BenchScale(unsigned def_servers = 2,
                        unsigned def_requests = 400,
                        unsigned def_sampling = 8)
        : requests(envUnsigned("HH_REQUESTS", def_requests)),
          servers(envUnsigned("HH_SERVERS", def_servers)),
          sampling(envUnsigned("HH_SAMPLING", def_sampling)),
          seed(envUnsigned("HH_SEED", 1))
    {
    }
};

/** Apply the scale knobs to a system configuration. */
inline void
applyScale(hh::cluster::SystemConfig &cfg, const BenchScale &s)
{
    cfg.requestsPerVm = s.requests;
    cfg.accessSampling = s.sampling;
    cfg.seed = s.seed;
}

/**
 * Observability command-line options accepted by every figure bench:
 *
 *   --trace <out.json>   Enable request-span/transition tracing and
 *                        write a Chrome trace_event JSON file
 *                        (loadable in chrome://tracing or Perfetto).
 *   --metrics <out.csv>  Enable periodic metric sampling and write
 *                        the time series as CSV.
 *
 * and, by benches whose cluster runs go through runClusterResumable:
 *
 *   --checkpoint-every <ms>
 *                        Periodically checkpoint cluster runs every
 *                        <ms> simulated milliseconds (see
 *                        docs/SNAPSHOT.md); a killed run resumes from
 *                        the last checkpoint on the next invocation.
 *   --checkpoint-file <path>
 *                        Where the checkpoint lives (default
 *                        checkpoint.hhcp).
 */
struct ObsOptions
{
    std::string tracePath;
    std::string metricsPath;
    double checkpointEveryMs = 0;
    std::string checkpointPath = "checkpoint.hhcp";

    bool traceEnabled() const { return !tracePath.empty(); }
    bool metricsEnabled() const { return !metricsPath.empty(); }
    bool checkpointEnabled() const { return checkpointEveryMs > 0; }
};

/**
 * Parse --trace/--metrics, plus --checkpoint-every/--checkpoint-file
 * when @p checkpointing; fatal on any other argument, so a bench
 * never silently ignores a checkpoint request.
 */
inline ObsOptions
parseObsArgs(int argc, char **argv, bool checkpointing = false)
{
    ObsOptions o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--trace" && i + 1 < argc) {
            o.tracePath = argv[++i];
        } else if (a == "--metrics" && i + 1 < argc) {
            o.metricsPath = argv[++i];
        } else if (checkpointing && a == "--checkpoint-every" &&
                   i + 1 < argc) {
            o.checkpointEveryMs = std::strtod(argv[++i], nullptr);
        } else if (checkpointing && a == "--checkpoint-file" &&
                   i + 1 < argc) {
            o.checkpointPath = argv[++i];
        } else {
            hh::sim::fatal("usage: ", argv[0],
                           " [--trace out.json] [--metrics out.csv]",
                           checkpointing ? " [--checkpoint-every ms]"
                                           " [--checkpoint-file path]"
                                         : "");
        }
    }
    return o;
}

/**
 * Cluster run honoring the checkpoint options: with
 * --checkpoint-every, resume from an existing checkpoint file if one
 * matches this run's configuration, otherwise run from t=0 while
 * checkpointing periodically. Results are byte-identical to a plain
 * runCluster either way (the snapshot determinism contract).
 */
inline hh::cluster::ClusterResults
runClusterResumable(const hh::cluster::SystemConfig &cfg,
                    unsigned servers, std::uint64_t seed,
                    unsigned workers, const ObsOptions &o)
{
    if (!o.checkpointEnabled())
        return hh::cluster::runCluster(cfg, servers, seed, workers);
    // A missing checkpoint file is the normal first run, not an
    // error; only an existing-but-unusable file deserves a warning.
    bool exists = false;
    if (std::FILE *probe = std::fopen(o.checkpointPath.c_str(), "rb")) {
        std::fclose(probe);
        exists = true;
    }
    if (exists) {
        std::string err;
        if (auto resumed = hh::cluster::resumeCluster(
                o.checkpointPath, cfg, workers, &err)) {
            std::printf("resumed from %s\n", o.checkpointPath.c_str());
            return *std::move(resumed);
        }
        hh::sim::warn("cannot resume ", o.checkpointPath, ": ", err,
                      "; running from t=0");
    }
    const auto every =
        hh::sim::msToCycles(std::max(o.checkpointEveryMs, 0.001));
    hh::cluster::CheckpointedRun run =
        hh::cluster::runClusterCheckpointed(cfg, servers, seed,
                                            workers, every,
                                            o.checkpointPath);
    std::printf("checkpointed %u times to %s\n",
                run.checkpointsWritten, o.checkpointPath.c_str());
    if (run.preViolationDumped)
        std::printf("pre-violation state dumped to %s\n",
                    run.preViolationPath.c_str());
    return std::move(run.results);
}

/** Turn on the corresponding SystemConfig observability knobs. */
inline void
applyObs(hh::cluster::SystemConfig &cfg, const ObsOptions &o)
{
    cfg.traceEnabled = cfg.traceEnabled || o.traceEnabled();
    cfg.metricsEnabled = cfg.metricsEnabled || o.metricsEnabled();
}

/**
 * Accumulates trace buffers and metric series across the runs of one
 * bench and writes the requested output files at the end.
 */
struct ObsSink
{
    ObsOptions opts;
    std::vector<hh::trace::ServerTrace> traces;
    std::vector<hh::stats::SampledSeries> series;

    explicit ObsSink(ObsOptions o) : opts(std::move(o)) {}

    /** Take one server run's observability data (moves it out). */
    void
    collect(hh::cluster::ServerResults &res, const std::string &label)
    {
        if (opts.traceEnabled()) {
            hh::trace::ServerTrace t;
            t.pid = static_cast<unsigned>(traces.size());
            t.events = std::move(res.traceEvents);
            t.dropped = res.traceDropped;
            traces.push_back(std::move(t));
        }
        if (opts.metricsEnabled()) {
            res.metricSeries.label = label;
            series.push_back(std::move(res.metricSeries));
        }
    }

    /** Take a whole cluster run's observability data. */
    void
    collect(hh::cluster::ClusterResults &res)
    {
        for (auto &t : res.traces) {
            t.pid = static_cast<unsigned>(traces.size());
            traces.push_back(std::move(t));
        }
        for (auto &s : res.metricSeries)
            series.push_back(std::move(s));
        res.traces.clear();
        res.metricSeries.clear();
    }

    /** Write the requested files; nonzero on I/O failure. */
    int
    finish() const
    {
        int rc = 0;
        if (opts.traceEnabled()) {
            if (hh::trace::writeChromeTrace(opts.tracePath, traces)) {
                std::printf("trace: %s (%zu tracks)\n",
                            opts.tracePath.c_str(), traces.size());
            } else {
                hh::sim::warn("cannot write ", opts.tracePath);
                rc = 1;
            }
        }
        if (opts.metricsEnabled()) {
            if (hh::stats::writeMetricsCsv(opts.metricsPath, series)) {
                std::printf("metrics: %s (%zu series)\n",
                            opts.metricsPath.c_str(), series.size());
            } else {
                hh::sim::warn("cannot write ", opts.metricsPath);
                rc = 1;
            }
        }
        return rc;
    }
};

/** Print a standard header naming the experiment. */
inline void
printHeader(const char *figure, const char *title)
{
    std::printf("================================================"
                "====\n");
    std::printf("%s: %s\n", figure, title);
    std::printf("================================================"
                "====\n");
}

/**
 * Print a per-service metric table: one row per service plus the
 * average, one column per labelled series.
 */
inline void
printServiceTable(
    const std::vector<std::string> &series,
    const std::vector<std::vector<hh::cluster::ServiceResult>> &runs,
    const char *metric, double (*get)(const hh::cluster::ServiceResult &))
{
    std::printf("%-10s", metric);
    for (const auto &name : series)
        std::printf(" %18s", name.c_str());
    std::printf("\n");
    if (runs.empty() || runs[0].empty())
        return;
    const std::size_t n_services = runs[0].size();
    std::vector<double> avg(series.size(), 0.0);
    for (std::size_t i = 0; i < n_services; ++i) {
        std::printf("%-10s", runs[0][i].name.c_str());
        for (std::size_t s = 0; s < runs.size(); ++s) {
            const double v = get(runs[s][i]);
            avg[s] += v;
            std::printf(" %18.3f", v);
        }
        std::printf("\n");
    }
    std::printf("%-10s", "Average");
    for (std::size_t s = 0; s < runs.size(); ++s) {
        std::printf(" %18.3f",
                    avg[s] / static_cast<double>(n_services));
    }
    std::printf("\n");
}

} // namespace hh::bench

#endif // HH_BENCH_UTIL_H
