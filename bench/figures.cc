#include "figures.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>

#include "sim/log.h"

#include "cache/repl_belady.h"
#include "cache/repl_lru.h"
#include "cache/set_assoc.h"
#include "workload/batch.h"
#include "workload/service.h"

namespace hh::bench {

namespace {

using namespace hh::cache;

/**
 * @name Figure 14 trace methodology
 * For each service, generate the post-L1 access stream of a
 * HardHarvest-Block-like core, then replay the identical stream into
 * an L2-configured array per policy; the Belady oracle is built from
 * the same stream.
 * @{
 */

struct TraceEvent
{
    Addr key = 0;
    bool shared = false;
    bool primary = false; //!< Primary-VM reference (counted).
    bool flushHarvest = false; //!< Region-flush marker.
};

/**
 * Generate the post-L1 stream: invocations of one service, with a
 * harvest episode (batch accesses on the borrowed core, restricted
 * to the harvest ways) every few invocations.
 */
std::vector<TraceEvent>
makeTrace(const hh::workload::ServiceSpec &spec, std::uint64_t seed,
          unsigned invocations)
{
    hh::workload::ServiceWorkload svc(spec, 1, seed);
    hh::workload::BatchWorkload batch(
        hh::workload::batchByName("PRank"), 99, seed);

    // L1 filter shared by the whole stream (one physical core).
    SetAssocArray l1d(kL1D, std::make_unique<LruPolicy>());
    SetAssocArray l1i(kL1I, std::make_unique<LruPolicy>());

    std::vector<TraceEvent> trace;
    hh::sim::Rng rng(seed, 0xF16);
    for (unsigned inv = 0; inv < invocations; ++inv) {
        const auto plan = svc.planInvocation();
        for (int i = 0; i < 2500; ++i) {
            const auto a = svc.nextAccess(plan);
            const Addr key = a.page * kLinesPerPage + a.line;
            SetAssocArray &l1 = a.isInstr ? l1i : l1d;
            if (!l1.access(key, a.shared).hit) {
                trace.push_back(
                    {key, a.isInstr || a.shared, true, false});
            }
        }
        // Harvest episode on a fraction of invocation gaps.
        if (rng.bernoulli(0.125)) {
            trace.push_back({0, false, false, true});
            for (int i = 0; i < 200; ++i) {
                const auto a = batch.nextAccess();
                const Addr key = a.page * kLinesPerPage + a.line;
                SetAssocArray &l1 = a.isInstr ? l1i : l1d;
                // The borrowed core's L1 harvest region was flushed;
                // approximate with a plain lookup (the L2 effect is
                // what this experiment measures).
                if (!l1.access(key, false).hit)
                    trace.push_back({key, false, false, false});
            }
            trace.push_back({0, false, false, true});
        }
    }
    return trace;
}

/**
 * Replay the trace into an L2 array with the given policy. A flush
 * marker toggles the harvest episode and, with @p flush, flushes the
 * harvest ways.
 */
double
replay(const std::vector<TraceEvent> &trace,
       std::unique_ptr<ReplacementPolicy> policy, double candidates,
       bool flush = true)
{
    SetAssocArray l2(kL2, std::move(policy));
    l2.setHarvestWayCount(4); // 50% of 8 ways
    l2.setCandidateFraction(candidates);
    const WayMask harvest = l2.harvestWays();
    const WayMask all = l2.allWays();
    std::uint64_t hits = 0;
    std::uint64_t refs = 0;
    bool in_harvest = false;
    for (const auto &e : trace) {
        if (e.flushHarvest) {
            if (flush)
                l2.flushWays(harvest);
            in_harvest = !in_harvest;
            continue;
        }
        const WayMask allowed = in_harvest ? harvest : all;
        const bool hit = l2.access(e.key, e.shared, allowed).hit;
        if (e.primary) {
            ++refs;
            hits += hit ? 1 : 0;
        }
    }
    return refs ? static_cast<double>(hits) /
                      static_cast<double>(refs)
                : 0.0;
}

/** Trace keys without the flush markers (oracle construction). */
std::vector<Addr>
keysOf(const std::vector<TraceEvent> &trace)
{
    std::vector<Addr> keys;
    for (const auto &e : trace) {
        if (!e.flushHarvest)
            keys.push_back(e.key);
    }
    return keys;
}

/** @} */

/** Fixed invocation count of the Fig 14 methodology. */
constexpr unsigned kFig14Invocations = 60;

/** Hexfloat text round-trip of the four per-service hit rates. */
std::string
encodeRates(double lru, double rrip, double hh, double bel)
{
    std::ostringstream os;
    os << std::hexfloat << lru << ' ' << rrip << ' ' << hh << ' '
       << bel;
    return os.str();
}

bool
decodeRates(const std::string &text, double out[4])
{
    std::istringstream is(text);
    for (int i = 0; i < 4; ++i) {
        std::string tok;
        if (!(is >> tok))
            return false;
        char *end = nullptr;
        out[i] = std::strtod(tok.c_str(), &end);
        if (end == tok.c_str() || *end != '\0')
            return false;
    }
    return true;
}

} // namespace

const std::vector<hh::cluster::SystemKind> &
evaluatedSystems()
{
    using hh::cluster::SystemKind;
    static const std::vector<SystemKind> kSystems = {
        SystemKind::NoHarvest, SystemKind::HarvestTerm,
        SystemKind::HarvestBlock, SystemKind::HardHarvestTerm,
        SystemKind::HardHarvestBlock};
    return kSystems;
}

// ---------------------------------------------------------- Fig 11

Fig11Harness::Fig11Harness(const BenchScale &scale,
                           const ObsOptions &obs)
    : scale_(scale)
{
    for (const auto kind : evaluatedSystems()) {
        hh::cluster::SystemConfig cfg = hh::cluster::makeSystem(kind);
        applyScale(cfg, scale_);
        applyObs(cfg, obs);
        cfgs_.push_back(cfg);
        series_.emplace_back(hh::cluster::systemName(kind));
    }
}

void
Fig11Harness::submit(hh::exp::JobScheduler &s)
{
    handles_.clear();
    for (const auto &cfg : cfgs_)
        handles_.push_back(s.addServer(cfg, "BFS", scale_.seed));
}

void
Fig11Harness::print(const hh::exp::JobScheduler &s,
                    ObsSink &sink) const
{
    printHeader("Figure 11",
                "P99 tail latency of Primary VMs, 5 systems [ms]");

    std::vector<hh::cluster::ServerResults> full;
    std::vector<std::vector<hh::cluster::ServiceResult>> runs;
    std::vector<double> avg_p99;
    for (std::size_t i = 0; i < handles_.size(); ++i) {
        hh::cluster::ServerResults res = s.serverResult(handles_[i]);
        sink.collect(res, series_[i]);
        runs.push_back(res.services);
        avg_p99.push_back(res.avgP99Ms());
        full.push_back(std::move(res));
    }

    printServiceTable(series_, runs, "p99[ms]",
                      [](const hh::cluster::ServiceResult &r) {
                          return r.p99Ms;
                      });

    std::printf("\nRatios vs NoHarvest (paper: 3.4x, 4.1x, 0.70x, "
                "0.72x):\n");
    for (std::size_t i = 1; i < series_.size(); ++i) {
        std::printf("  %-18s %.2fx\n", series_[i].c_str(),
                    avg_p99[i] / avg_p99[0]);
    }
    std::printf("Reduction of HardHarvest-Block vs Harvest-Term "
                "(paper: 83.3%%): %.1f%%\n",
                100.0 * (1.0 - avg_p99[4] / avg_p99[1]));

    std::printf("\n%-18s %10s %10s %10s\n", "system", "busyCores",
                "loans", "reclaims");
    for (std::size_t i = 0; i < series_.size(); ++i) {
        std::printf("%-18s %10.1f %10llu %10llu\n", series_[i].c_str(),
                    full[i].avgBusyCores,
                    static_cast<unsigned long long>(full[i].coreLoans),
                    static_cast<unsigned long long>(
                        full[i].coreReclaims));
    }
}

void
Fig11Harness::measure(const hh::exp::JobScheduler &s,
                      hh::exp::MeasurementSet &m) const
{
    std::vector<double> p99;
    std::vector<double> busy;
    for (const auto h : handles_) {
        const auto &res = s.serverResult(h);
        p99.push_back(res.avgP99Ms());
        busy.push_back(res.avgBusyCores);
    }
    m.set("fig11.noh_p99", p99[0]);
    m.set("fig11.ht_p99", p99[1]);
    m.set("fig11.hb_p99", p99[2]);
    m.set("fig11.hht_p99", p99[3]);
    m.set("fig11.hhb_p99", p99[4]);
    if (p99[0] > 0) {
        m.set("fig11.ht_over_noh", p99[1] / p99[0]);
        m.set("fig11.hb_over_noh", p99[2] / p99[0]);
        m.set("fig11.hht_over_noh", p99[3] / p99[0]);
        m.set("fig11.hhb_over_noh", p99[4] / p99[0]);
    }
    if (p99[1] > 0)
        m.set("fig11.hhb_reduction_vs_ht", 1.0 - p99[4] / p99[1]);

    // §6.7 rides on the same five runs.
    m.set("sec67.noh_busy", busy[0]);
    m.set("sec67.ht_busy", busy[1]);
    m.set("sec67.hb_busy", busy[2]);
    m.set("sec67.hht_busy", busy[3]);
    m.set("sec67.hhb_busy", busy[4]);
    m.set("sec67.sw_max_busy", std::max(busy[1], busy[2]));
    m.set("sec67.hw_min_busy", std::min(busy[3], busy[4]));
}

// ---------------------------------------------------------- Fig 14

Fig14Harness::Fig14Harness(const BenchScale &scale) : scale_(scale)
{
    for (const auto &spec : hh::workload::deathStarBenchServices())
        services_.push_back(spec.name);
}

void
Fig14Harness::submit(hh::exp::JobScheduler &s)
{
    handles_.clear();
    const auto services = hh::workload::deathStarBenchServices();
    for (const auto &spec : services) {
        const std::uint64_t seed = scale_.seed;
        handles_.push_back(s.addCustom(
            "fig14",
            "svc=" + spec.name +
                " inv=" + std::to_string(kFig14Invocations),
            seed, [spec, seed] {
                using hh::cache::makePolicy;
                using hh::cache::ReplKind;
                const auto trace =
                    makeTrace(spec, seed, kFig14Invocations);
                const double lru =
                    replay(trace, makePolicy(ReplKind::LRU), 1.0);
                const double rrip =
                    replay(trace, makePolicy(ReplKind::RRIP), 1.0);
                const double hh = replay(
                    trace, makePolicy(ReplKind::HardHarvest), 0.75);
                // The ideal bar is flush-free clairvoyant replacement:
                // an upper bound no online, flushed policy can reach.
                const NextUseOracle oracle(keysOf(trace));
                const double bel = replay(
                    trace, std::make_unique<BeladyPolicy>(oracle), 1.0,
                    false);
                return encodeRates(lru, rrip, hh, bel);
            }));
    }
}

std::vector<Fig14Harness::Rates>
Fig14Harness::rates(const hh::exp::JobScheduler &s) const
{
    std::vector<Rates> out;
    for (const auto h : handles_) {
        double v[4];
        if (!decodeRates(s.payload(h), v))
            hh::sim::fatal("Fig14Harness: job payload does not "
                           "decode; delete the result ledger");
        out.push_back({v[0], v[1], v[2], v[3]});
    }
    return out;
}

void
Fig14Harness::print(const hh::exp::JobScheduler &s) const
{
    printHeader("Figure 14",
                "L2 hit rate under different replacement policies");

    std::printf("%-10s %10s %10s %12s %10s\n", "service", "LRU",
                "RRIP", "HardHarvest", "Belady");
    double a_lru = 0;
    double a_rrip = 0;
    double a_hh = 0;
    double a_bel = 0;
    const auto all = rates(s);
    for (std::size_t i = 0; i < services_.size(); ++i) {
        const Rates &r = all[i];
        std::printf("%-10s %9.1f%% %9.1f%% %11.1f%% %9.1f%%\n",
                    services_[i].c_str(), r.lru * 100, r.rrip * 100,
                    r.hh * 100, r.bel * 100);
        a_lru += r.lru;
        a_rrip += r.rrip;
        a_hh += r.hh;
        a_bel += r.bel;
    }
    const double n = static_cast<double>(services_.size());
    std::printf("%-10s %9.1f%% %9.1f%% %11.1f%% %9.1f%%\n", "Avg",
                a_lru / n * 100, a_rrip / n * 100, a_hh / n * 100,
                a_bel / n * 100);
    std::printf("\nHardHarvest vs LRU:  +%.1f%% (paper: +11.3%%)\n",
                (a_hh - a_lru) / n * 100);
    std::printf("HardHarvest vs RRIP: +%.1f%% (paper: +8.2%%)\n",
                (a_hh - a_rrip) / n * 100);
    std::printf("Belady - HardHarvest: %.1f%% (paper: 3.1%%)\n",
                (a_bel - a_hh) / n * 100);
}

void
Fig14Harness::measure(const hh::exp::JobScheduler &s,
                      hh::exp::MeasurementSet &m) const
{
    double a_lru = 0, a_rrip = 0, a_hh = 0, a_bel = 0;
    const auto all = rates(s);
    for (const Rates &r : all) {
        a_lru += r.lru;
        a_rrip += r.rrip;
        a_hh += r.hh;
        a_bel += r.bel;
    }
    const double n = static_cast<double>(all.size());
    m.set("fig14.lru", a_lru / n);
    m.set("fig14.rrip", a_rrip / n);
    m.set("fig14.hh", a_hh / n);
    m.set("fig14.belady", a_bel / n);
    m.set("fig14.hh_minus_lru", (a_hh - a_lru) / n);
    m.set("fig14.hh_minus_rrip", (a_hh - a_rrip) / n);
    m.set("fig14.belady_minus_hh", (a_bel - a_hh) / n);
}

// ---------------------------------------------------------- Fig 17

Fig17Harness::Fig17Harness(const BenchScale &scale,
                           const ObsOptions &obs)
    : scale_(scale)
{
    const auto apps = hh::workload::batchApplications();
    const unsigned n_apps = std::min<unsigned>(
        scale_.servers, static_cast<unsigned>(apps.size()));
    for (unsigned a = 0; a < n_apps; ++a)
        apps_.push_back(apps[a].name);
    for (const auto kind : evaluatedSystems()) {
        hh::cluster::SystemConfig cfg = hh::cluster::makeSystem(kind);
        applyScale(cfg, scale_);
        applyObs(cfg, obs);
        cfgs_.push_back(cfg);
    }
}

void
Fig17Harness::submit(hh::exp::JobScheduler &s)
{
    handles_.clear();
    for (const auto &app : apps_) {
        for (const auto &cfg : cfgs_)
            handles_.push_back(s.addServer(cfg, app, scale_.seed));
    }
}

void
Fig17Harness::print(const hh::exp::JobScheduler &s,
                    ObsSink &sink) const
{
    printHeader("Figure 17",
                "Harvest VM throughput normalized to NoHarvest");

    std::printf("%-10s", "app");
    for (const auto kind : evaluatedSystems())
        std::printf(" %18s", hh::cluster::systemName(kind));
    std::printf("\n");

    const std::size_t n_sys = cfgs_.size();
    std::vector<double> avg(n_sys, 0.0);
    for (std::size_t a = 0; a < apps_.size(); ++a) {
        std::vector<double> tput;
        for (std::size_t k = 0; k < n_sys; ++k) {
            hh::cluster::ServerResults res =
                s.serverResult(handles_[a * n_sys + k]);
            sink.collect(
                res, apps_[a] + "/" +
                         hh::cluster::systemName(
                             evaluatedSystems()[k]));
            tput.push_back(res.batchThroughput);
        }
        std::printf("%-10s", apps_[a].c_str());
        for (std::size_t k = 0; k < tput.size(); ++k) {
            const double norm = tput[k] / tput[0];
            avg[k] += norm;
            std::printf(" %18.2f", norm);
        }
        std::printf("\n");
    }
    std::printf("%-10s", "Average");
    for (std::size_t k = 0; k < avg.size(); ++k)
        std::printf(" %18.2f",
                    avg[k] / static_cast<double>(apps_.size()));
    std::printf("\n\n(paper averages: 1.0, 1.7x, ~1.9x, ~2.8x, "
                "3.1x)\n");
}

void
Fig17Harness::measure(const hh::exp::JobScheduler &s,
                      hh::exp::MeasurementSet &m) const
{
    const std::size_t n_sys = cfgs_.size();
    std::vector<double> avg(n_sys, 0.0);
    for (std::size_t a = 0; a < apps_.size(); ++a) {
        const double base =
            s.serverResult(handles_[a * n_sys]).batchThroughput;
        if (base <= 0)
            return;
        for (std::size_t k = 0; k < n_sys; ++k) {
            avg[k] += s.serverResult(handles_[a * n_sys + k])
                          .batchThroughput /
                      base;
        }
    }
    const double n = static_cast<double>(apps_.size());
    m.set("fig17.ht_norm", avg[1] / n);
    m.set("fig17.hb_norm", avg[2] / n);
    m.set("fig17.hht_norm", avg[3] / n);
    m.set("fig17.hhb_norm", avg[4] / n);
}

} // namespace hh::bench
