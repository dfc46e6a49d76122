#include "paper_figures.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "cache/config.h"
#include "core/controller.h"
#include "core/storage_cost.h"
#include "figures.h"
#include "mem/dram.h"
#include "net/fabric.h"
#include "sim/log.h"
#include "stats/percentile.h"
#include "workload/alibaba.h"

namespace hh::bench {

namespace {

using hh::cluster::makeSystem;
using hh::cluster::ServerResults;
using hh::cluster::ServiceResult;
using hh::cluster::SystemConfig;
using hh::cluster::SystemKind;
using hh::exp::JobScheduler;

/** Labelled configurations of one figure, in print order. */
using Points = std::vector<std::pair<std::string, SystemConfig>>;

/** A figure's labelled BFS server jobs, in print order. */
struct Series
{
    std::vector<std::string> labels;
    std::vector<JobScheduler::Handle> handles;

    /** Result copies in order; observability payloads into @p sink. */
    std::vector<ServerResults>
    collect(const JobScheduler &s, ObsSink &sink) const
    {
        std::vector<ServerResults> out;
        for (std::size_t i = 0; i < handles.size(); ++i) {
            out.push_back(s.serverResult(handles[i]));
            sink.collect(out.back(), labels[i]);
        }
        return out;
    }

    /**
     * Print the per-service P99 table (P50 with @p median) and return
     * each series' average over the services.
     */
    std::vector<double>
    printTable(const JobScheduler &s, ObsSink &sink,
               bool median = false) const
    {
        std::vector<std::vector<ServiceResult>> runs;
        std::vector<double> avg;
        for (const auto &res : collect(s, sink)) {
            runs.push_back(res.services);
            avg.push_back(median ? res.avgP50Ms() : res.avgP99Ms());
        }
        double (*get)(const ServiceResult &) =
            [](const ServiceResult &r) { return r.p99Ms; };
        if (median)
            get = [](const ServiceResult &r) { return r.p50Ms; };
        printServiceTable(labels, runs, median ? "p50[ms]" : "p99[ms]",
                          get);
        return avg;
    }
};

/** Submit one BFS server job per point at @p scale. */
Series
submitBfs(JobScheduler &sched, const BenchScale &scale,
          const ObsOptions &obs, Points points)
{
    Series series;
    for (auto &[label, cfg] : points) {
        applyScale(cfg, scale);
        applyObs(cfg, obs);
        series.labels.push_back(label);
        series.handles.push_back(sched.addServer(cfg, "BFS", scale.seed));
    }
    return series;
}

/** The five evaluated systems' BFS jobs: Figure 11's runs. */
Series
submitEvaluated(JobScheduler &sched, const BenchScale &scale,
                const ObsOptions &obs)
{
    Points points;
    for (const auto kind : evaluatedSystems())
        points.emplace_back(hh::cluster::systemName(kind),
                            makeSystem(kind));
    return submitBfs(sched, scale, obs, std::move(points));
}

/** How a footer row compares a series' average with the base's. */
enum class Vs
{
    Ratio,     //!< avg / base
    Reduction, //!< 100 * (1 - avg / base) percent
    Change,    //!< 100 * (avg / base - 1) percent
};

/** Footer rows `row(label, value)` for the series from `first` on. */
struct Footer
{
    const char *title;
    const char *row;
    Vs vs;
    std::size_t first;
    std::size_t base;
};

/**
 * A figure made of the per-service P99 table (P50 with @p median) of
 * @p series plus a footer comparing each series with a base one.
 */
FigureRun
latencyFigure(const char *figure, const char *title, Series series,
              Footer footer, bool median = false)
{
    return {[=](const JobScheduler &s, ObsSink &sink) {
        printHeader(figure, title);
        const auto avg = series.printTable(s, sink, median);
        std::fputs(footer.title, stdout);
        for (std::size_t i = footer.first; i < avg.size(); ++i) {
            const double r = avg[i] / avg[footer.base];
            std::printf(footer.row, series.labels[i].c_str(),
                        footer.vs == Vs::Ratio       ? r
                        : footer.vs == Vs::Reduction ? 100.0 * (1.0 - r)
                                                     : 100.0 * (r - 1.0));
        }
    }};
}

/** A figure over the Fig 11 or Fig 17 harness of figures.h. */
template <class Harness>
FigureRun
harnessFigure(JobScheduler &sched, std::shared_ptr<Harness> fig)
{
    fig->submit(sched);
    return {[fig](const JobScheduler &s, ObsSink &sink) {
                fig->print(s, sink);
            },
            [fig](const JobScheduler &s, hh::exp::MeasurementSet &m) {
                fig->measure(s, m);
            }};
}

// --------------------------------------------------------- Table 1

/** Table 1: the modelled architectural parameters, to diff by eye. */
FigureRun
tab01(JobScheduler &, const BenchScale &, const ObsOptions &)
{
    return {[](const JobScheduler &, ObsSink &) {
        using namespace hh::cache;
        std::printf("Table 1: architectural parameters\n");
        std::printf("---------------------------------------------\n");
        const auto cfg = makeSystem(SystemKind::HardHarvestBlock);
        std::printf("Machine            cluster of 8 servers\n");
        std::printf("Server processor   %u cores at 3 GHz\n", cfg.cores);

        auto geom = [](const char *name, const Geometry &g,
                       unsigned line_or_entries) {
            std::printf("%-18s %u sets x %u ways (%u %s), "
                        "%llu-cycle RT\n",
                        name, g.sets, g.ways, line_or_entries,
                        line_or_entries > 512 ? "B total" : "B line",
                        static_cast<unsigned long long>(g.latency));
        };
        geom("L1 D-Cache", kL1D, kL1D.entries() * kLineBytes);
        geom("L1 I-Cache", kL1I, kL1I.entries() * kLineBytes);
        geom("L2 Cache", kL2, kL2.entries() * kLineBytes);
        geom("L3 Cache/core", kL3PerCore,
             kL3PerCore.entries() * kLineBytes);
        std::printf("L1 TLB             %u entries, %u-way, "
                    "%llu-cycle RT\n",
                    kL1Tlb.entries(), kL1Tlb.ways,
                    static_cast<unsigned long long>(kL1Tlb.latency));
        std::printf("L2 TLB             %u entries, %u-way, "
                    "%llu-cycle RT\n",
                    kL2Tlb.entries(), kL2Tlb.ways,
                    static_cast<unsigned long long>(kL2Tlb.latency));

        hh::net::Fabric fabric;
        std::printf("Inter-server       %.2f us RT, %.0f GB/s\n",
                    hh::sim::cyclesToUs(fabric.roundTrip(0)),
                    fabric.config().bytesPerCycle * 3.0);
        std::printf("Primary VMs        %u per server, %u cores each\n",
                    cfg.primaryVms, cfg.coresPerPrimary);
        std::printf("Harvest VMs        1 per server, %u cores + "
                    "harvested\n",
                    cfg.cores - cfg.primaryVms * cfg.coresPerPrimary);

        hh::mem::DramConfig dram;
        std::printf("Main memory        DDR4-3200, %u controllers, "
                    "102.4 GB/s\n", dram.controllers);

        hh::core::ControllerConfig ctrl;
        std::printf("RQ                 %u chunks x %u entries\n",
                    ctrl.rqChunks, ctrl.entriesPerChunk);
        std::printf("Queue Managers     %u\n", ctrl.maxQms);
        std::printf("VM State Regs      16 per set\n");
        std::printf("Harvest region     %.0f%% of ways\n",
                    cfg.harvestWayFraction * 100);
        std::printf("Evict candidates M %.0f%% of ways\n",
                    cfg.candidateFraction * 100);
        std::printf("Flush+Inv HarvReg  %llu cycles\n",
                    static_cast<unsigned long long>(ctrl.flushBound));
    }};
}

// ------------------------------------------------------ Figs 2 - 3

/**
 * Figure 2: CDF of the average and maximum core utilization of
 * Alibaba's microservice instances. Paper: 50% of instances below
 * 16.1% average utilization; 90% below 40.7% maximum utilization.
 */
FigureRun
fig02(JobScheduler &, const BenchScale &scale, const ObsOptions &)
{
    return {[seed = scale.seed](const JobScheduler &, ObsSink &) {
        printHeader("Figure 2",
                    "core utilization CDF of Alibaba-like instances");

        hh::workload::AlibabaTrace trace(seed);
        const auto inst = trace.instances(10000);

        std::vector<double> avg;
        std::vector<double> mx;
        for (const auto &u : inst) {
            avg.push_back(u.avgUtil);
            mx.push_back(u.maxUtil);
        }

        std::vector<double> xs;
        for (double x = 0.0; x <= 1.0001; x += 0.05)
            xs.push_back(x);
        const auto cdf_avg = hh::stats::empiricalCdf(avg, xs);
        const auto cdf_max = hh::stats::empiricalCdf(mx, xs);

        std::printf("%-12s %12s %12s\n", "utilization", "CDF(avg)",
                    "CDF(max)");
        for (std::size_t i = 0; i < xs.size(); ++i) {
            std::printf("%-12.2f %12.3f %12.3f\n", xs[i], cdf_avg[i],
                        cdf_max[i]);
        }

        const auto at = [](std::vector<double> v, double p) {
            std::sort(v.begin(), v.end());
            return v[static_cast<std::size_t>(p * (v.size() - 1))];
        };
        std::printf("\nmedian avg util: %.3f (paper: 0.161)\n",
                    at(avg, 0.5));
        std::printf("P90 max util:    %.3f (paper: 0.407)\n",
                    at(mx, 0.9));
    }};
}

/**
 * Figure 3: core utilization of a representative Alibaba
 * microservice VM over 500 seconds (bursty low-utilization shape).
 */
FigureRun
fig03(JobScheduler &, const BenchScale &scale, const ObsOptions &)
{
    return {[seed = scale.seed](const JobScheduler &, ObsSink &) {
        printHeader("Figure 3",
                    "utilization time series of one instance (500 s)");

        hh::workload::AlibabaTrace trace(seed);
        const auto series = trace.utilizationSeries(500.0, 5.0);

        std::printf("%-8s %12s  %s\n", "t[s]", "utilization", "bar");
        double mean = 0;
        double peak = 0;
        for (std::size_t i = 0; i < series.size(); ++i) {
            const double u = series[i];
            mean += u;
            peak = std::max(peak, u);
            std::printf("%-8.0f %12.3f  ", static_cast<double>(i) * 5.0,
                        u);
            const int stars = static_cast<int>(u * 50);
            for (int s = 0; s < stars; ++s)
                std::printf("*");
            std::printf("\n");
        }
        mean /= static_cast<double>(series.size());
        std::printf("\nmean %.3f, peak %.3f (paper: mostly low with "
                    "bursts toward ~0.8)\n", mean, peak);
    }};
}

// ------------------------------------------------------ Figs 4 - 7

/**
 * Figure 4: P99 tail with the hypervisor overheads of core
 * reassignment only (no cache flushing; the Harvest VM is idle).
 * Paper: 3.2x, 3.8x, 2.7x, 3.1x average tail increase.
 */
FigureRun
fig04(JobScheduler &sched, const BenchScale &scale, const ObsOptions &obs)
{
    using hh::vm::ReassignImpl;
    const auto variant = [](const char *name, bool harvesting,
                            bool onBlock, ReassignImpl impl) {
        SystemConfig cfg = makeSystem(harvesting ? SystemKind::HarvestTerm
                                                 : SystemKind::NoHarvest);
        cfg.harvesting = harvesting;
        cfg.harvestOnBlock = onBlock;
        cfg.swImpl = impl;
        // Fig 4 isolates reassignment: the Harvest VM is idle and
        // caches are NOT flushed on a core move.
        cfg.harvestVmIdle = true;
        cfg.swFlushOnReassign = false;
        return Points::value_type(name, cfg);
    };
    return latencyFigure(
        "Figure 4", "P99 tail with hypervisor reassignment only [ms]",
        submitBfs(sched, scale, obs,
                  {variant("No-Move", false, false, ReassignImpl::Kvm),
                   variant("KVM-Term", true, false, ReassignImpl::Kvm),
                   variant("KVM-Block", true, true, ReassignImpl::Kvm),
                   variant("Opt-Term", true, false, ReassignImpl::Optimized),
                   variant("Opt-Block", true, true, ReassignImpl::Optimized)}),
        {"\nTail increase vs No-Move (paper: 3.2x 3.8x 2.7x 3.1x):\n",
         "  %-10s %.2fx\n", Vs::Ratio, 1, 0});
}

/**
 * Figure 5: P99 tail with cache/TLB flushing (wbinvd) and, for the
 * last two bars, flushing plus hypervisor reassignment. Paper: 2.7x,
 * 3.3x, 3.6x, 4.2x average increase.
 */
FigureRun
fig05(JobScheduler &sched, const BenchScale &scale, const ObsOptions &obs)
{
    // reassignFree: charge the flush only (the Flush-* bars).
    const auto variant = [](const char *name, bool harvesting,
                            bool onBlock, bool flush, bool reassignFree) {
        SystemConfig cfg = makeSystem(harvesting ? SystemKind::HarvestTerm
                                                 : SystemKind::NoHarvest);
        cfg.harvesting = harvesting;
        cfg.harvestOnBlock = onBlock;
        cfg.swFlushOnReassign = flush;
        cfg.swReassignFree = reassignFree;
        return Points::value_type(name, cfg);
    };
    return latencyFigure(
        "Figure 5", "P99 tail with cache/TLB flushing [ms]",
        submitBfs(sched, scale, obs,
                  {variant("No-Flush", false, false, false, true),
                   variant("Flush-Term", true, false, true, true),
                   variant("Flush-Block", true, true, true, true),
                   variant("Harvest-Term", true, false, true, false),
                   variant("Harvest-Block", true, true, true, false)}),
        {"\nTail increase vs No-Flush (paper: 2.7x 3.3x 3.6x 4.2x):\n",
         "  %-14s %.2fx\n", Vs::Ratio, 1, 0});
}

/**
 * Figure 6: steady-state time of a single request without and with
 * software core harvesting, split into reassignment, flush and
 * execution. Paper: 1.9x longer overall, execution 1.2x (cold
 * structures).
 */
FigureRun
fig06(JobScheduler &sched, const BenchScale &scale, const ObsOptions &obs)
{
    Points points = {{"NoHarvest", makeSystem(SystemKind::NoHarvest)},
                     {"Harvesting", makeSystem(SystemKind::HarvestBlock)}};
    return {[series = submitBfs(sched, scale, obs, std::move(points))](
                const JobScheduler &s, ObsSink &sink) {
        printHeader("Figure 6",
                    "single-request time breakdown (mean) [ms]");
        const auto res = series.collect(s, sink);
        const ServerResults &base = res[0];
        const ServerResults &harv = res[1];

        std::printf("%-10s %-12s %10s %10s %10s %10s\n", "service",
                    "system", "reassign", "flush", "exec", "total");
        double base_total = 0;
        double harv_total = 0;
        double base_exec = 0;
        double harv_exec = 0;
        for (std::size_t i = 0; i < base.services.size(); ++i) {
            const auto &b = base.services[i];
            const auto &h = harv.services[i];
            std::printf("%-10s %-12s %10.3f %10.3f %10.3f %10.3f\n",
                        b.name.c_str(), "NoHarvest", b.reassignMs,
                        b.flushMs, b.execMs,
                        b.reassignMs + b.flushMs + b.execMs);
            std::printf("%-10s %-12s %10.3f %10.3f %10.3f %10.3f\n", "",
                        "Harvesting", h.reassignMs, h.flushMs, h.execMs,
                        h.reassignMs + h.flushMs + h.execMs);
            base_total += b.reassignMs + b.flushMs + b.execMs;
            harv_total += h.reassignMs + h.flushMs + h.execMs;
            base_exec += b.execMs;
            harv_exec += h.execMs;
        }
        std::printf("\nAvg request time with harvesting: %.2fx (paper: "
                    "1.9x)\n", harv_total / base_total);
        std::printf("Avg execution (cold structures):  %.2fx (paper: "
                    "1.2x)\n", harv_exec / base_exec);
    }};
}

/**
 * Figure 7: tail latency with a fraction of the whole cache and TLB
 * hierarchy (Inf, 100%, 75%, 50%, 25% of ways, sets constant).
 * Paper: even at 50% the impact is very small.
 */
FigureRun
fig07(JobScheduler &sched, const BenchScale &scale, const ObsOptions &obs)
{
    const auto variant = [](const char *name, bool infinite,
                            double fraction) {
        SystemConfig cfg = makeSystem(SystemKind::NoHarvest);
        cfg.infiniteCaches = infinite;
        cfg.waysFraction = fraction;
        return Points::value_type(name, cfg);
    };
    return latencyFigure(
        "Figure 7", "P99 tail vs cache/TLB size fraction [ms]",
        submitBfs(sched, scale, obs,
                  {variant("Inf", true, 1.0), variant("100%", false, 1.0),
                   variant("75%", false, 0.75), variant("50%", false, 0.5),
                   variant("25%", false, 0.25)}),
        {"\nAvg tail vs 100% (paper: small impact even at 50%):\n",
         "  %-5s %.2fx\n", Vs::Ratio, 0, 1});
}

// --------------------------------------------------- Figs 11 - 17

/**
 * Figure 11: P99 tail of the five evaluated systems (Fig11Harness).
 * Paper: Harvest-Term / Harvest-Block average 3.4x / 4.1x NoHarvest;
 * HardHarvest-Term/Block land 30.5% / 28.4% below NoHarvest.
 */
FigureRun
fig11(JobScheduler &sched, const BenchScale &scale, const ObsOptions &obs)
{
    return harnessFigure(sched, std::make_shared<Fig11Harness>(scale, obs));
}

/**
 * Figure 12: cumulative impact of the HardHarvest optimizations on
 * P99, from software Harvest-Block adding +Sched, +Queue, +CtxtSw,
 * +Part (partitioning with LRU), +Flush, then the replacement policy.
 * Paper: 25.6%, 35.5%, 61.1%, 80.1%, 83.6%, 85.6% below Harvest-Block.
 */
FigureRun
fig12(JobScheduler &sched, const BenchScale &scale, const ObsOptions &obs)
{
    enum Step { HarvestTermBar, HarvestBlockBar, Sched, Queue, CtxtSw,
                Part, Flush, Repl };
    const char *names[] = {"HarvestTerm", "HarvestBlock", "+Sched",
                           "+Queue",      "+CtxtSw",      "+Part",
                           "+Flush",      "HardHarvest"};
    Points points;
    for (int step = HarvestTermBar; step <= Repl; ++step) {
        SystemConfig cfg = makeSystem(step == HarvestTermBar
                                          ? SystemKind::HarvestTerm
                                          : SystemKind::HarvestBlock);
        cfg.hwSched = step >= Sched;
        cfg.hwQueue = step >= Queue;
        cfg.hwCtxtSwitch = step >= CtxtSw;
        cfg.partitioning = step >= Part;
        cfg.efficientFlush = step >= Flush;
        cfg.repl = step >= Repl ? hh::cache::ReplKind::HardHarvest
                                : hh::cache::ReplKind::LRU;
        points.emplace_back(names[step], cfg);
    }
    return latencyFigure(
        "Figure 12", "cumulative optimization breakdown, P99 [ms]",
        submitBfs(sched, scale, obs, std::move(points)),
        {"\nCumulative reduction vs Harvest-Block (paper: "
         "25.6 35.5 61.1 80.1 83.6 85.6 %):\n",
         "  %-12s %.1f%%\n", Vs::Reduction, Sched, HarvestBlockBar});
}

/**
 * Figure 13: in-hardware context switching (+CtxtSw) and hardware
 * request scheduling (+Sched) on Harvest-Block, alone and together.
 * Paper: similar impact, partially additive.
 */
FigureRun
fig13(JobScheduler &sched, const BenchScale &scale, const ObsOptions &obs)
{
    const auto variant = [](const char *name, bool hwSched, bool ctxsw) {
        SystemConfig cfg = makeSystem(SystemKind::HarvestBlock);
        cfg.hwSched = hwSched;
        cfg.hwCtxtSwitch = ctxsw;
        return Points::value_type(name, cfg);
    };
    return latencyFigure(
        "Figure 13", "Sched vs CtxtSw ablation, P99 [ms]",
        submitBfs(sched, scale, obs,
                  {variant("HarvestBlock", false, false),
                   variant("+CtxtSw", false, true),
                   variant("+Sched", true, false),
                   variant("+CtxtSw&Sched", true, true)}),
        {"\nReduction vs HarvestBlock:\n", "  %-14s %.1f%%\n",
         Vs::Reduction, 1, 0});
}

/**
 * Figure 14: L2 hit rate under LRU, RRIP, the HardHarvest policy and
 * Belady (Fig14Harness). Paper: HardHarvest +11.3% over LRU, +8.2%
 * over RRIP, within 3.1% of Belady.
 */
FigureRun
fig14(JobScheduler &sched, const BenchScale &scale, const ObsOptions &)
{
    auto fig = std::make_shared<Fig14Harness>(scale);
    fig->submit(sched);
    // Fig 14 replays access traces, not servers: nothing to observe.
    return {[fig](const JobScheduler &s, ObsSink &) { fig->print(s); },
            [fig](const JobScheduler &s, hh::exp::MeasurementSet &m) {
                fig->measure(s, m);
            }};
}

/**
 * Figure 15: cumulative impact of +Sched, +Queue, +CtxtSw and
 * +ReplPolicy with core harvesting disabled. Paper: 14.5%, 20.1%,
 * 28.6%, 33.6%.
 */
FigureRun
fig15(JobScheduler &sched, const BenchScale &scale, const ObsOptions &obs)
{
    enum Step { Base, Sched, Queue, CtxtSw, Repl };
    const char *names[] = {"NoHarvest", "+Sched", "+Queue", "+CtxtSw",
                           "+ReplPolicy"};
    Points points;
    for (int step = Base; step <= Repl; ++step) {
        SystemConfig cfg = makeSystem(SystemKind::NoHarvest);
        cfg.hwSched = step >= Sched;
        cfg.hwQueue = step >= Queue;
        cfg.hwCtxtSwitch = step >= CtxtSw;
        cfg.repl = step >= Repl ? hh::cache::ReplKind::HardHarvest
                                : hh::cache::ReplKind::LRU;
        points.emplace_back(names[step], cfg);
    }
    return latencyFigure(
        "Figure 15", "optimizations without harvesting, P99 [ms]",
        submitBfs(sched, scale, obs, std::move(points)),
        {"\nCumulative reduction vs NoHarvest (paper: 14.5 20.1 28.6 "
         "33.6 %):\n",
         "  %-12s %.1f%%\n", Vs::Reduction, Sched, Base});
}

/**
 * Figure 16: median latency of the five evaluated systems, a view
 * over Figure 11's runs. Paper: Harvest-Term +7.9% over NoHarvest,
 * HardHarvest-Block -26.1%.
 */
FigureRun
fig16(JobScheduler &sched, const BenchScale &scale, const ObsOptions &obs)
{
    return latencyFigure(
        "Figure 16", "median latency, 5 systems [ms]",
        submitEvaluated(sched, scale, obs),
        {"\nMedian vs NoHarvest (paper: +7.9% for Harvest-Term, "
         "-26.1% for HardHarvest-Block):\n",
         "  %-18s %+0.1f%%\n", Vs::Change, 1, 0},
        /*median=*/true);
}

/**
 * Figure 17: Harvest VM throughput normalized to NoHarvest, one batch
 * application per HH_SERVERS (Fig17Harness). Paper: Harvest-Term
 * 1.7x, HardHarvest-Block 3.1x on average.
 */
FigureRun
fig17(JobScheduler &sched, const BenchScale &scale, const ObsOptions &obs)
{
    return harnessFigure(sched, std::make_shared<Fig17Harness>(scale, obs));
}

// ---------------------------------------------------- §6.7 - §6.8

/**
 * Section 6.7: average busy cores out of 36 for the five evaluated
 * systems, a view over Figure 11's runs. Paper: 10.3, 23.8, 26.5,
 * 28.7, 34.8.
 */
FigureRun
sec67(JobScheduler &sched, const BenchScale &scale, const ObsOptions &obs)
{
    return {[series = submitEvaluated(sched, scale, obs)](
                const JobScheduler &s, ObsSink &sink) {
        printHeader("Section 6.7", "average busy cores out of 36");
        const double paper[] = {10.3, 23.8, 26.5, 28.7, 34.8};
        std::printf("%-18s %12s %12s %10s\n", "system", "busy cores",
                    "paper", "util");
        const auto res = series.collect(s, sink);
        for (std::size_t i = 0; i < res.size(); ++i) {
            std::printf("%-18s %12.1f %12.1f %9.1f%%\n",
                        series.labels[i].c_str(), res[i].avgBusyCores,
                        paper[i], res[i].utilization * 100);
        }
        std::printf("\nHardHarvest-Block vs Harvest-Term: %.2fx "
                    "(paper: 1.5x)\n",
                    res[4].avgBusyCores / res[1].avgBusyCores);
        std::printf("HardHarvest-Block vs NoHarvest:    %.2fx "
                    "(paper: 3.4x)\n",
                    res[4].avgBusyCores / res[0].avgBusyCores);
    }};
}

/**
 * Section 6.8: storage, area and power cost of the HardHarvest
 * hardware (analytic). Paper: 18.9 KB per controller, 67.8 KB of
 * Shared bits per server, 0.19% area, 0.16% power.
 */
FigureRun
sec68(JobScheduler &, const BenchScale &, const ObsOptions &)
{
    return {[](const JobScheduler &, ObsSink &) {
        const auto c = hh::core::computeStorageCost();
        printHeader("Section 6.8", "storage / area / power cost");
        std::printf("%-34s %10s %10s\n", "component", "measured",
                    "paper");
        std::printf("%-34s %8.2fKB %10s\n", "RQ array (2K x 66b)",
                    c.rqKb, "16.5KB");
        std::printf("%-34s %8.2fKB %10s\n",
                    "16x (VM state + RQ-Map + HarvestMask)", c.qmKb,
                    "2.4KB");
        std::printf("%-34s %8.2fKB %10s\n", "controller total",
                    c.controllerKb, "18.9KB");
        std::printf("%-34s %8.2fKB %10s\n", "controller per core",
                    c.controllerPerCoreKb, "0.53KB");
        std::printf("%-34s %8.2fKB %10s\n", "Shared bits per core",
                    c.sharedBitsPerCoreKb, "1.9KB");
        std::printf("%-34s %8.2fKB %10s\n", "Shared bits per server",
                    c.sharedBitsServerKb, "67.8KB");
        std::printf("%-34s %9.2f%% %10s\n", "area overhead",
                    c.areaOverheadPct, "0.19%");
        std::printf("%-34s %9.2f%% %10s\n", "power overhead",
                    c.powerOverheadPct, "0.16%");
    }};
}

// -------------------------------------------------- Figs 18 - 19

/**
 * Figure 18: HardHarvest-Block P99 with 2.5, 2, 1 and 0.5 MB of LLC
 * per core. Paper: small changes; a bigger LLC slightly lowers the
 * tail.
 */
FigureRun
fig18(JobScheduler &sched, const BenchScale &scale, const ObsOptions &obs)
{
    Points points;
    for (const double mb : {2.5, 2.0, 1.0, 0.5}) {
        SystemConfig cfg = makeSystem(SystemKind::HardHarvestBlock);
        cfg.llcMbPerCore = mb;
        char label[32];
        std::snprintf(label, sizeof label, "%.1fMB/core", mb);
        points.emplace_back(label, cfg);
    }
    return latencyFigure(
        "Figure 18", "HardHarvest-Block P99 vs LLC size [ms]",
        submitBfs(sched, scale, obs, std::move(points)),
        {"\nAvg tail vs 2MB/core (paper: small changes):\n",
         "  %-10s %.3fx\n", Vs::Ratio, 0, 1});
}

/**
 * Figure 19: HardHarvest-Block P99 with 25%, 50%, 75% and 100% of the
 * ways as eviction candidates. Paper: 75% is the sweet spot.
 */
FigureRun
fig19(JobScheduler &sched, const BenchScale &scale, const ObsOptions &obs)
{
    Points points;
    for (const double m : {0.25, 0.5, 0.75, 1.0}) {
        SystemConfig cfg = makeSystem(SystemKind::HardHarvestBlock);
        cfg.candidateFraction = m;
        char label[16];
        std::snprintf(label, sizeof label, "%.0f%%", m * 100);
        points.emplace_back(label, cfg);
    }
    return latencyFigure(
        "Figure 19", "HardHarvest P99 vs eviction-candidate size [ms]",
        submitBfs(sched, scale, obs, std::move(points)),
        {"\nAvg tail vs 75% (paper: 75% is best):\n", "  %-5s %.3fx\n",
         Vs::Ratio, 0, 2});
}

// ------------------------------------------------------ Extensions

/**
 * Extension study (§4.1.5 future work) on HardHarvest-Block: adaptive
 * fallback to harvest-on-termination, a one-core burst buffer, and
 * the §6.3 CDP negative result (paper: +8% tail).
 */
FigureRun
extensions(JobScheduler &sched, const BenchScale &scale,
           const ObsOptions &obs)
{
    const auto variant = [](const char *name, bool adaptive,
                            unsigned buffer, hh::cache::ReplKind repl) {
        SystemConfig cfg = makeSystem(SystemKind::HardHarvestBlock);
        cfg.adaptiveHarvest = adaptive;
        cfg.hwEmergencyBuffer = buffer;
        cfg.repl = repl;
        return Points::value_type(name, cfg);
    };
    using hh::cache::ReplKind;
    const Points points = {
        variant("HardHarvest-Block", false, 0, ReplKind::HardHarvest),
        variant("+Adaptive", true, 0, ReplKind::HardHarvest),
        variant("+Buffer(1)", false, 1, ReplKind::HardHarvest),
        variant("CDP-repl", false, 0, ReplKind::CDP)};
    return {[series = submitBfs(sched, scale, obs, points)](
                const JobScheduler &s, ObsSink &sink) {
        printHeader("Extensions",
                    "adaptive / buffered harvesting and CDP (§4.1.5, "
                    "§6.3)");
        std::printf("%-18s %10s %10s %12s %10s\n", "variant", "p99[ms]",
                    "p50[ms]", "batch[t/s]", "reclaims");
        const auto res = series.collect(s, sink);
        for (std::size_t i = 0; i < res.size(); ++i) {
            std::printf("%-18s %10.3f %10.3f %12.0f %10llu\n",
                        series.labels[i].c_str(), res[i].avgP99Ms(),
                        res[i].avgP50Ms(), res[i].batchThroughput,
                        static_cast<unsigned long long>(
                            res[i].coreReclaims));
        }
        std::printf("\nCDP vs HardHarvest replacement: %+.1f%% tail "
                    "(paper: +8%%)\n",
                    100.0 * (res[3].avgP99Ms() / res[0].avgP99Ms() - 1.0));
    }};
}

} // namespace

const std::vector<PaperFigure> &
paperFigures()
{
    static const std::vector<PaperFigure> kFigures = {
        {"tab01_params", false, tab01},
        {"fig02_util_cdf", false, fig02},
        {"fig03_util_timeseries", false, fig03},
        {"fig04_reassign_overhead", false, fig04},
        {"fig05_flush_overhead", false, fig05},
        {"fig06_exec_breakdown", false, fig06},
        {"fig07_cache_fraction", false, fig07},
        {"fig11_tail_latency", true, fig11},
        {"fig12_opt_breakdown", false, fig12},
        {"fig13_sched_ctxtsw", false, fig13},
        {"fig14_l2_hitrate", true, fig14},
        {"fig15_noharvest_opts", false, fig15},
        {"fig16_median_latency", false, fig16},
        {"fig17_harvest_throughput", true, fig17},
        {"sec67_core_utilization", false, sec67},
        {"sec68_storage_cost", false, sec68},
        {"fig18_llc_sensitivity", false, fig18},
        {"fig19_evict_candidates", false, fig19},
        {"ext_adaptive_harvesting", false, extensions},
    };
    return kFigures;
}

const PaperFigure &
paperFigure(std::string_view binary)
{
    for (const auto &fig : paperFigures()) {
        if (binary == fig.binary)
            return fig;
    }
    hh::sim::fatal("no paper figure named ", binary);
}

} // namespace hh::bench
