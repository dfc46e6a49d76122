/**
 * @file
 * The simulator benchmark binary (see simbench/README.md).
 *
 *   simbench --workload cluster|fleet|repro --seed N --seconds S
 *            --trace 0|1 [--tiny] [--spans out.json]
 *
 * One process drives one workload, one simulation at a time, with at
 * most min(4, usable cores) pool workers. Inside each simulation every
 * Primary VM is an open-loop arrival process with a fixed per-VM
 * request budget drawn from the seed.
 *
 * --trace 0 repeats set-up and run of the workload for S seconds and
 * prints the end-to-end metrics (medians over the repetitions).
 * --trace 1 runs the workload once untraced, then once with the
 * simulator's profile counters on and spans recorded around every
 * layer call, and prints the per-layer metrics.
 *
 * Every simulation is checked: repetitions must serialize
 * byte-identically, the traced run must match the untraced one, every
 * request must complete, and the repro sweep must pass its
 * FidelityGate. The last stdout line is the JSON result.
 */

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/checkpoint.h"
#include "cluster/experiment.h"
#include "cluster/parallel.h"
#include "exp/codec.h"
#include "exp/fidelity.h"
#include "exp/scheduler.h"
#include "figures.h"
#include "probe.h"
#include "snapshot/archive.h"
#include "svc/fleet.h"
#include "svc/graph_spec.h"
#include "workload/batch.h"

namespace {

using namespace hh::simbench;
namespace cl = hh::cluster;
using hh::sim::Cycles;

// ------------------------------------------------------------ metrics

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, printed by --trace 0 (BENCHMARK.json order). */
const std::vector<MetricDef> kEndToEnd = {
    {"cpu_s_per_sim_s", "s/sim_s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"primary_p99_ms", "sim_ms"},
    {"primary_p50_ms", "sim_ms"},
    {"batch_tasks_per_s", "tasks/sim_s"},
    {"completed_frac", "frac"},
};

/** Per-layer metrics, printed by --trace 1 (BENCHMARK.json order). */
const std::vector<MetricDef> kPerLayer = {
    {"sim.run.ns", "ns"},
    {"sim.self_ns", "ns"},
    {"cluster.replay_harvest.ns", "ns"},
    {"cluster.replay_harvest.calls", "count"},
    {"cluster.replay_harvest.share", "frac"},
    {"cluster.replay_segment.ns", "ns"},
    {"cluster.replay_segment.calls", "count"},
    {"cluster.replay.self_ns", "ns"},
    {"cluster.epoch_ns.p50", "ns"},
    {"cluster.epoch_ns.p99", "ns"},
    {"cluster.finish_ms", "ms"},
    {"cluster.serialize_ms", "ms"},
    {"cluster.server_setup_ms", "ms"},
    {"cluster.server_setup.share", "frac"},
    {"cluster.loans", "count"},
    {"cluster.reclaims", "count"},
    {"cluster.batch_tasks", "count"},
    {"cache.hierarchy_access.self_ns", "ns"},
    {"cache.hierarchy_access.calls", "count"},
    {"cache.ns_per_access", "ns"},
    {"cache.array_access.ns", "ns"},
    {"cache.array_access.calls", "count"},
    {"cache.probes_per_access", "count"},
    {"cache.l1d.hit_rate", "frac"},
    {"cache.l1i.hit_rate", "frac"},
    {"cache.l2.hit_rate", "frac"},
    {"cache.l3.hit_rate", "frac"},
    {"cache.l2tlb.hit_rate", "frac"},
    {"cache.evictions", "count"},
    {"mem.dram.accesses", "count"},
    {"mem.dram.queue_delay_avg", "sim_cycles"},
    {"workload.zipf_sample.ns", "ns"},
    {"workload.zipf_sample.calls", "count"},
    {"core.rq.enqueues", "count"},
    {"core.rq.overflows", "count"},
    {"vm.hv.wbinvd", "count"},
    {"vm.hv.lock_wait_cycles", "sim_cycles"},
    {"net.nic.packets", "count"},
    {"svc.window_ns.p50", "ns"},
    {"svc.window_ns.p99", "ns"},
    {"svc.windows", "count"},
    {"svc.wire_messages", "count"},
    {"svc.barrier_idle_frac", "frac"},
    {"svc.finish_ms", "ms"},
    {"svc.setup_ms", "ms"},
    {"exp.sched_run_s", "s"},
    {"exp.jobs_submitted", "count"},
    {"exp.jobs_unique", "count"},
    {"exp.jobs_simulated", "count"},
    {"exp.warm_started", "count"},
    {"exp.dedup_ratio", "frac"},
    {"exp.job_s.NoHarvest", "s"},
    {"exp.job_s.Harvest-Term", "s"},
    {"exp.job_s.Harvest-Block", "s"},
    {"exp.job_s.HardHarvest-Term", "s"},
    {"exp.job_s.HardHarvest-Block", "s"},
    {"exp.pool_eff", "frac"},
    {"exp.fidelity_passed", "count"},
    {"exp.fidelity_failed", "count"},
    {"snapshot.save_ms", "ms"},
    {"snapshot.load_ms", "ms"},
    {"snapshot.bytes", "bytes"},
    {"host.calib_ns", "ns"},
    {"host.trace_overhead_pct", "%"},
    {"host.run_wall_s", "s"},
    {"host.run_cpu_s", "s"},
};

/**
 * A fixed table of metrics, all zero until set. A layer a workload
 * does not exercise reads 0 (e.g. svc.* outside `fleet`).
 */
class MetricTable
{
  public:
    explicit MetricTable(const std::vector<MetricDef> &defs)
        : defs_(defs), values_(defs.size(), 0.0)
    {
    }

    void
    set(const std::string &name, double value)
    {
        for (std::size_t i = 0; i < defs_.size(); ++i) {
            if (name == defs_[i].name) {
                values_[i] = value;
                return;
            }
        }
        std::fprintf(stderr, "simbench: unknown metric %s\n",
                     name.c_str());
        std::exit(3);
    }

    /** The "metrics" object of the result line. */
    std::string
    json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < defs_.size(); ++i) {
            char buf[96];
            const double v = std::isfinite(values_[i]) ? values_[i] : 0;
            std::snprintf(buf, sizeof buf, "{\"value\": %.17g, ", v);
            out += (i ? ", \"" : "\"") + std::string(defs_[i].name) +
                   "\": " + buf + "\"unit\": \"" + defs_[i].unit +
                   "\"}";
        }
        return out + "}";
    }

  private:
    const std::vector<MetricDef> &defs_;
    std::vector<double> values_;
};

// ------------------------------------------------------------ scale

/** Per-workload sizes; --tiny is the smoke-test scale. */
struct Scale
{
    unsigned clusterServers, clusterRequests, clusterSampling;
    unsigned fleetServers, fleetRequests, fleetSampling;
    unsigned reproServers, reproRequests, reproSampling;
};

constexpr Scale kBenchScale{4, 30, 8, 16, 8, 32, 2, 96, 32};
constexpr Scale kTinyScale{2, 8, 32, 6, 4, 64, 2, 32, 64};

/** Simulated time per traced `advanceRun` epoch (cluster). */
const Cycles kEpoch = hh::sim::msToCycles(1.0);
/** Simulated time at which the snapshot layer is measured. */
const Cycles kSnapshotAt = hh::sim::msToCycles(5.0);

// ------------------------------------------------------------ outcomes

/** Simulated outputs of one workload simulation, with its checks. */
struct SimOutcome
{
    std::string digest; //!< Byte-exact serialization of the results.
    double p99Ms = 0;
    double p50Ms = 0;
    double batchTput = 0;  //!< Harvest-VM tasks per simulated second.
    double simUs = 0;      //!< Simulated us summed over servers.
    std::uint64_t attempted = 0; //!< Primary (root) requests.
    std::uint64_t failed = 0;    //!< Unfinished or shed.
    std::string error;           //!< Non-empty: a check failed.
};

/** Sums of every server's MetricRegistry, read after finishRun. */
class RegistrySums
{
  public:
    void
    add(cl::ServerSim &sim)
    {
        for (const auto &s : sim.metrics().snapshot())
            sums_[s.name] += s.value;
        ++servers_;
    }

    bool empty() const { return sums_.empty(); }

    /** Sum of every metric whose name ends in @p suffix. */
    double
    total(const std::string &suffix) const
    {
        double t = 0;
        for (const auto &[name, v] : sums_) {
            if (name.size() >= suffix.size() &&
                name.compare(name.size() - suffix.size(), suffix.size(),
                             suffix) == 0)
                t += v;
        }
        return t;
    }

    double
    hitRate(const std::string &level) const
    {
        const double h = total("." + level + ".hits");
        const double m = total("." + level + ".misses");
        return h + m > 0 ? h / (h + m) : 0;
    }

    /** Fill the registry-derived per-layer metrics. */
    void
    report(MetricTable &t) const
    {
        for (const char *lvl : {"l1d", "l1i", "l2", "l3", "l2tlb"})
            t.set(std::string("cache.") + lvl + ".hit_rate",
                  hitRate(lvl));
        t.set("cache.evictions", total(".evictions"));
        t.set("mem.dram.accesses", total("dram.accesses"));
        t.set("mem.dram.queue_delay_avg",
              servers_ ? total("dram.queue_delay.avg") / servers_ : 0);
        t.set("core.rq.enqueues", total(".rq.enqueues"));
        t.set("core.rq.overflows", total(".rq.overflows"));
        t.set("vm.hv.wbinvd", total("hv.wbinvd"));
        t.set("vm.hv.lock_wait_cycles", total("hv.lock.wait_cycles"));
        t.set("net.nic.packets", total("nic.packets"));
        t.set("cluster.loans", total("server.loans"));
        t.set("cluster.reclaims", total("server.reclaims"));
        t.set("cluster.batch_tasks", total("server.batch_tasks"));
    }

  private:
    std::map<std::string, double> sums_;
    double servers_ = 0;
};

double
msSince(Clock::time_point t0)
{
    return secondsSince(t0) * 1e3;
}

/** Expected post-warmup completions of one Primary VM. */
std::uint64_t
measuredPerVm(const cl::SystemConfig &cfg)
{
    return cfg.requestsPerVm -
           static_cast<unsigned>(cfg.warmupFraction *
                                 static_cast<double>(cfg.requestsPerVm));
}

/** Fold one server's completion counts into @p o. */
void
checkServices(SimOutcome &o, const std::vector<cl::ServiceResult> &svcs,
              const cl::SystemConfig &cfg, unsigned servers)
{
    const std::uint64_t expected = measuredPerVm(cfg) * servers;
    o.attempted += std::uint64_t{cfg.primaryVms} * cfg.requestsPerVm *
                   servers;
    if (svcs.size() != cfg.primaryVms) {
        o.failed += std::uint64_t{cfg.primaryVms} * cfg.requestsPerVm *
                    servers;
        o.error = "expected one service result per Primary VM";
        return;
    }
    for (const auto &s : svcs) {
        if (s.count < expected) {
            o.failed += expected - s.count;
            o.error = "service " + s.name + " left requests unfinished";
        }
    }
}

// ------------------------------------------------------------ workloads

/** Outcome and wall time of a traced run. */
struct TracedRun
{
    SimOutcome outcome;
    double runS = 0; //!< Host seconds of the traced run phase.
};

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Set-ups per timed repetition (the last one is run). */
    virtual unsigned setupRepeats() const = 0;
    /** Build the simulation (timed as setup_s). */
    virtual void setup() = 0;
    /** Drop the simulation (untimed). */
    virtual void teardown() = 0;
    /** Run the built simulation to aggregated results (timed). */
    virtual SimOutcome run() = 0;
    /** The same simulation through the library's own entry point. */
    virtual SimOutcome reference() { return {}; }
    /** Build and run once under the profiler, recording spans. */
    virtual TracedRun traced(SpanLog &log, MetricTable &layers) = 0;
    /** Layer measurements taken untraced after the traced run. */
    virtual std::string untracedLayers(MetricTable &) { return ""; }
};

/**
 * `cluster`: the classic HardHarvest-Block cluster of independent
 * servers, one batch app each, static policy (§5, Figs 11/17).
 */
class ClusterWorkload final : public Workload
{
  public:
    ClusterWorkload(const Scale &sc, std::uint64_t seed, unsigned workers)
        : cfg_(cl::makeSystem(cl::SystemKind::HardHarvestBlock)),
          servers_(sc.clusterServers), seed_(seed), workers_(workers),
          apps_(hh::workload::batchApplications())
    {
        cfg_.requestsPerVm = sc.clusterRequests;
        cfg_.accessSampling = sc.clusterSampling;
        cfg_.seed = seed;
    }

    unsigned setupRepeats() const override { return 3; }

    void
    setup() override
    {
        sims_ = cl::runParallel<std::unique_ptr<cl::ServerSim>>(
            servers_, [this](std::size_t s) { return makeServer(s); },
            workers_);
    }

    void teardown() override { sims_.clear(); }

    SimOutcome
    run() override
    {
        auto runs = cl::runParallel<cl::ServerResults>(
            servers_, [this](std::size_t s) { return sims_[s]->run(); },
            workers_);
        double simUs = 0;
        for (const auto &r : runs)
            simUs += r.elapsedSec * 1e6;
        SimOutcome o = outcome(
            cl::aggregateClusterResults(cfg_, servers_, std::move(runs)));
        o.simUs = simUs;
        return o;
    }

    SimOutcome
    reference() override
    {
        return outcome(cl::runCluster(cfg_, servers_, seed_, workers_));
    }

    TracedRun
    traced(SpanLog &log, MetricTable &layers) override
    {
        const ScopedSpan root(log, "workload.cluster");
        std::vector<double> ctorMs(servers_);
        {
            const ScopedSpan sp(log, "cluster.setup", root.id());
            sims_ = cl::runParallel<std::unique_ptr<cl::ServerSim>>(
                servers_,
                [&](std::size_t s) {
                    const ScopedSpan c(log, "ServerSim.ctor", sp.id());
                    const auto t0 = Clock::now();
                    auto sim = makeServer(s);
                    ctorMs[s] = msSince(t0);
                    return sim;
                },
                workers_);
        }

        const auto t0 = Clock::now();
        std::vector<std::vector<double>> epochNs(servers_);
        std::vector<double> finishMs(servers_);
        cl::ClusterResults agg;
        double aggMs = 0;
        {
            const ScopedSpan sp(log, "cluster.run", root.id());
            auto runs = cl::runParallel<cl::ServerResults>(
                servers_,
                [&](std::size_t s) {
                    return steppedRun(log, sp.id(), *sims_[s],
                                      epochNs[s], finishMs[s]);
                },
                workers_);
            const ScopedSpan a(log, "aggregateClusterResults",
                               sp.id());
            const auto a0 = Clock::now();
            agg = cl::aggregateClusterResults(cfg_, servers_,
                                              std::move(runs));
            aggMs = msSince(a0);
        }
        TracedRun tr;
        tr.runS = secondsSince(t0);

        RegistrySums regs;
        for (auto &sim : sims_)
            regs.add(*sim);
        regs.report(layers);

        double serializeMs = 0;
        {
            const ScopedSpan sp(log, "ClusterResults.serialized",
                                root.id());
            const auto s0 = Clock::now();
            tr.outcome = outcome(agg);
            serializeMs = msSince(s0);
        }
        for (const auto &sim : sims_) {
            if (!sim->finished())
                tr.outcome.error = "a traced server did not finish";
        }
        sims_.clear();

        std::vector<double> allEpochs;
        for (const auto &e : epochNs)
            allEpochs.insert(allEpochs.end(), e.begin(), e.end());
        double finishSum = aggMs;
        for (double f : finishMs)
            finishSum += f;
        layers.set("cluster.epoch_ns.p50", percentile(allEpochs, 50));
        layers.set("cluster.epoch_ns.p99", percentile(allEpochs, 99));
        layers.set("cluster.finish_ms", finishSum);
        layers.set("cluster.serialize_ms", serializeMs);
        layers.set("cluster.server_setup_ms", median(ctorMs));
        return tr;
    }

    /** snapshot.*: one server saved and reloaded at kSnapshotAt. */
    std::string
    untracedLayers(MetricTable &layers) override
    {
        cl::ServerSim src(cfg_, apps_[0].name, seed_);
        src.startRun();
        src.advanceRun(kSnapshotAt);
        std::vector<double> saveMs, loadMs;
        std::vector<std::uint8_t> bytes;
        for (int i = 0; i < 3; ++i) {
            auto ar = hh::snap::Archive::forSave();
            const auto t0 = Clock::now();
            src.saveState(ar);
            saveMs.push_back(msSince(t0));
            if (!ar.ok())
                return "snapshot save failed: " + ar.error();
            bytes = ar.take();
        }
        for (int i = 0; i < 3; ++i) {
            cl::ServerSim dst(cfg_, apps_[0].name, seed_);
            auto ar = hh::snap::Archive::forLoad(bytes);
            const auto t0 = Clock::now();
            dst.loadState(ar);
            loadMs.push_back(msSince(t0));
            if (!ar.ok())
                return "snapshot load failed: " + ar.error();
            auto again = hh::snap::Archive::forSave();
            dst.saveState(again);
            if (again.take() != bytes)
                return "snapshot reload is not byte-identical";
        }
        layers.set("snapshot.save_ms", median(saveMs));
        layers.set("snapshot.load_ms", median(loadMs));
        layers.set("snapshot.bytes", static_cast<double>(bytes.size()));
        return "";
    }

  private:
    std::unique_ptr<cl::ServerSim>
    makeServer(std::size_t s) const
    {
        return std::make_unique<cl::ServerSim>(
            cfg_, apps_[s].name, seed_ + static_cast<std::uint64_t>(s));
    }

    /** startRun + fixed-simulated-time advanceRun epochs + finishRun. */
    static cl::ServerResults
    steppedRun(SpanLog &log, std::int64_t parent, cl::ServerSim &sim,
               std::vector<double> &epochNs, double &finishMs)
    {
        {
            const ScopedSpan s(log, "ServerSim.startRun", parent);
            sim.startRun();
        }
        {
            const ScopedSpan s(log, "ServerSim.advanceRun", parent);
            for (Cycles t = kEpoch;; t += kEpoch) {
                const auto e0 = Clock::now();
                sim.advanceRun(t);
                epochNs.push_back(secondsSince(e0) * 1e9);
                if (sim.simIdle() || t >= cl::ServerSim::horizon())
                    break;
            }
        }
        const ScopedSpan s(log, "ServerSim.finishRun", parent);
        const auto f0 = Clock::now();
        cl::ServerResults res = sim.finishRun();
        finishMs = msSince(f0);
        return res;
    }

    SimOutcome
    outcome(const cl::ClusterResults &r) const
    {
        SimOutcome o;
        o.digest = r.serialized();
        o.p99Ms = r.avgP99Ms();
        o.p50Ms = r.avgP50Ms();
        for (const auto &[app, tput] : r.batchThroughput)
            o.batchTput += tput;
        checkServices(o, r.services, cfg_, servers_);
        return o;
    }

    cl::SystemConfig cfg_;
    unsigned servers_;
    std::uint64_t seed_;
    unsigned workers_;
    std::vector<hh::workload::BatchSpec> apps_;
    std::vector<std::unique_ptr<cl::ServerSim>> sims_;
};

/**
 * `fleet`: a 3-tier, fanout-2 service-graph fleet of HardHarvest-Block
 * servers under conservative-window synchronization.
 */
class FleetWorkload final : public Workload
{
  public:
    FleetWorkload(const Scale &sc, std::uint64_t seed, unsigned workers)
        : spec_(hh::svc::makeLayeredGraphSpec(3, 2, sc.fleetServers)),
          cfg_(cl::makeSystem(cl::SystemKind::HardHarvestBlock)),
          seed_(seed), workers_(workers)
    {
        cfg_.requestsPerVm = sc.fleetRequests;
        cfg_.accessSampling = sc.fleetSampling;
        cfg_.seed = seed;
        // Roots are drawn only by front-tier VMs, each from its own
        // arrival budget.
        const auto placement =
            hh::svc::buildGraphPlacement(spec_, cfg_, seed_);
        for (const auto &plan : placement.plans) {
            for (const auto &vm : plan.vms)
                root_budget_ += vm.front ? cfg_.requestsPerVm : 0;
        }
    }

    unsigned setupRepeats() const override { return 1; }

    void
    setup() override
    {
        fleet_ = std::make_unique<hh::svc::FleetSim>(spec_, cfg_, seed_);
    }

    void teardown() override { fleet_.reset(); }

    SimOutcome
    run() override
    {
        fleet_->start();
        fleet_->advanceWindows(workers_);
        return outcome(fleet_->finish(workers_));
    }

    TracedRun
    traced(SpanLog &log, MetricTable &layers) override
    {
        const ScopedSpan root(log, "workload.fleet");
        double setupMs = 0;
        {
            const ScopedSpan sp(log, "FleetSim.ctor", root.id());
            const auto t0 = Clock::now();
            setup();
            setupMs = msSince(t0);
        }

        const auto t0 = Clock::now();
        TickCalibration ticks;
        ticks.begin();
        std::vector<double> windowNs;
        std::uint64_t inWindowTicks = 0;
        double finishMs = 0;
        hh::svc::FleetResults res;
        {
            const ScopedSpan sp(log, "fleet.run", root.id());
            {
                const ScopedSpan s(log, "FleetSim.start", sp.id());
                fleet_->start();
            }
            while (!fleet_->drained()) {
                const ScopedSpan s(log, "FleetSim.advanceWindows",
                                   sp.id());
                const std::uint64_t before = profCycles("sim.run");
                const auto w0 = Clock::now();
                fleet_->advanceWindows(workers_, fleet_->barrier() + 1);
                windowNs.push_back(secondsSince(w0) * 1e9);
                inWindowTicks += profCycles("sim.run") - before;
            }
            const ScopedSpan s(log, "FleetSim.finish", sp.id());
            const auto f0 = Clock::now();
            res = fleet_->finish(workers_);
            finishMs = msSince(f0);
        }
        ticks.end();
        TracedRun tr;
        tr.runS = secondsSince(t0);
        tr.outcome = outcome(res);
        teardown();

        double windowSum = 0;
        for (double w : windowNs)
            windowSum += w;
        const double lanes = static_cast<double>(
            cl::resolveWorkers(workers_, spec_.servers));
        layers.set("svc.window_ns.p50", percentile(windowNs, 50));
        layers.set("svc.window_ns.p99", percentile(windowNs, 99));
        layers.set("svc.windows", static_cast<double>(res.windows));
        layers.set("svc.wire_messages",
                   static_cast<double>(res.wireMessages));
        layers.set("svc.barrier_idle_frac",
                   windowSum > 0 ? 1.0 - ticks.ns(inWindowTicks) /
                                             (lanes * windowSum)
                                 : 0);
        layers.set("svc.finish_ms", finishMs);
        layers.set("svc.setup_ms", setupMs);
        layers.set("cluster.server_setup_ms", setupMs / spec_.servers);
        layers.set("cluster.loans", static_cast<double>(res.coreLoans));
        layers.set("cluster.reclaims",
                   static_cast<double>(res.coreReclaims));
        layers.set("cluster.batch_tasks",
                   static_cast<double>(res.batchTasks));
        if (res.windows != windowNs.size())
            tr.outcome.error = "window count disagrees with the steps";
        return tr;
    }

  private:
    SimOutcome
    outcome(const hh::svc::FleetResults &r) const
    {
        SimOutcome o;
        o.digest = r.serialized();
        o.p99Ms = r.e2eP99Us / 1e3;
        o.p50Ms = r.e2eP50Us / 1e3;
        o.batchTput = r.batchThroughput;
        o.simUs = r.elapsedSec * 1e6 * r.servers;
        o.attempted = root_budget_;
        o.failed = root_budget_ - std::min(root_budget_, r.rootsDone);
        if (r.rootsDone + r.rootsShed != root_budget_)
            o.error = "roots done + shed != root budget";
        return o;
    }

    hh::svc::ServiceGraphSpec spec_;
    cl::SystemConfig cfg_;
    std::uint64_t seed_;
    unsigned workers_;
    std::uint64_t root_budget_ = 0;
    std::unique_ptr<hh::svc::FleetSim> fleet_;
};

/**
 * `repro`: the quick-scale paper sweep (Fig 11/14/17 harnesses in one
 * JobScheduler, as `repro_all --no-ledger` submits it) plus the
 * direction-level FidelityGate.
 */
class ReproWorkload final : public Workload
{
  public:
    ReproWorkload(const Scale &sc, std::uint64_t seed, unsigned workers)
        : workers_(workers)
    {
        scale_.servers = sc.reproServers;
        scale_.requests = sc.reproRequests;
        scale_.sampling = sc.reproSampling;
        scale_.seed = seed;
    }

    unsigned setupRepeats() const override { return 100; }

    void
    setup() override
    {
        state_ = std::make_unique<State>(scale_, workers_);
        state_->f11.submit(state_->sched);
        state_->f14.submit(state_->sched);
        state_->f17.submit(state_->sched);
    }

    void teardown() override { state_.reset(); }

    SimOutcome
    run() override
    {
        const double c0 = cpuSeconds();
        const auto t0 = Clock::now();
        state_->sched.run();
        sched_run_s_ = secondsSince(t0);
        sched_cpu_s_ = cpuSeconds() - c0;
        return finishSweep();
    }

    TracedRun
    traced(SpanLog &log, MetricTable &) override
    {
        const ScopedSpan root(log, "workload.repro");
        {
            const ScopedSpan sp(log, "exp.setup", root.id());
            setup();
        }
        const auto t0 = Clock::now();
        TracedRun tr;
        {
            const ScopedSpan sp(log, "JobScheduler.run", root.id());
            state_->sched.run();
        }
        {
            const ScopedSpan sp(log, "exp.measure_and_gate", root.id());
            tr.outcome = finishSweep();
        }
        tr.runS = secondsSince(t0);
        return tr;
    }

    /**
     * exp.*: engine counters of the last timed sweep, plus each
     * system's BFS job run alone (registries read after finishRun).
     * Keeps the traced sweep alive to compare job results with it.
     */
    std::string
    untracedLayers(MetricTable &layers) override
    {
        layers.set("exp.sched_run_s", sched_run_s_);
        layers.set("exp.jobs_submitted",
                   static_cast<double>(stats_.submitted));
        layers.set("exp.jobs_unique", static_cast<double>(stats_.unique));
        layers.set("exp.jobs_simulated",
                   static_cast<double>(stats_.simulated));
        layers.set("exp.warm_started",
                   static_cast<double>(stats_.warmStarted));
        layers.set("exp.dedup_ratio",
                   stats_.submitted
                       ? 1.0 - static_cast<double>(stats_.unique) /
                                   static_cast<double>(stats_.submitted)
                       : 0);
        layers.set("exp.pool_eff",
                   sched_run_s_ > 0
                       ? sched_cpu_s_ / (workers_ * sched_run_s_)
                       : 0);
        layers.set("exp.fidelity_passed", fidelity_passed_);
        layers.set("exp.fidelity_failed", fidelity_failed_);

        RegistrySums regs;
        std::vector<double> ctorMs;
        std::string error;
        for (const auto kind : hh::bench::evaluatedSystems()) {
            const cl::SystemConfig cfg = systemConfig(kind);
            const auto c0 = Clock::now();
            cl::ServerSim sim(cfg, "BFS", scale_.seed);
            ctorMs.push_back(msSince(c0));
            const auto t0 = Clock::now();
            const cl::ServerResults res = sim.run();
            layers.set(std::string("exp.job_s.") + cl::systemName(kind),
                       secondsSince(t0));
            regs.add(sim);
            const auto h = state_->sched.addServer(cfg, "BFS", scale_.seed);
            if (hh::exp::encodeServerResults(res) !=
                hh::exp::encodeServerResults(
                    state_->sched.serverResult(h)))
                error = std::string("BFS job alone differs from the "
                                    "sweep under ") +
                        cl::systemName(kind);
        }
        regs.report(layers);
        layers.set("cluster.server_setup_ms", median(ctorMs));
        teardown();
        return error;
    }

  private:
    struct State
    {
        State(const hh::bench::BenchScale &s, unsigned workers)
            : f11(s, hh::bench::ObsOptions()), f14(s),
              f17(s, hh::bench::ObsOptions()), sched(options(workers))
        {
        }

        static hh::exp::JobScheduler::Options
        options(unsigned workers)
        {
            hh::exp::JobScheduler::Options o;
            o.workers = workers;
            return o;
        }

        hh::bench::Fig11Harness f11;
        hh::bench::Fig14Harness f14;
        hh::bench::Fig17Harness f17;
        hh::exp::JobScheduler sched;
    };

    cl::SystemConfig
    systemConfig(cl::SystemKind kind) const
    {
        cl::SystemConfig cfg = cl::makeSystem(kind);
        hh::bench::applyScale(cfg, scale_);
        return cfg;
    }

    /** Measure, gate, and fold every server job into an outcome. */
    SimOutcome
    finishSweep()
    {
        stats_ = state_->sched.stats();
        hh::exp::MeasurementSet m;
        state_->f11.measure(state_->sched, m);
        state_->f14.measure(state_->sched, m);
        state_->f17.measure(state_->sched, m);
        const auto gate = hh::exp::evaluateFidelity(
            hh::exp::paperFidelityCatalogue(), m,
            hh::exp::GateLevel::Direction);
        fidelity_passed_ = fidelity_failed_ = 0;
        for (const auto &g : gate) {
            using Status = hh::exp::FidelityOutcome::Status;
            fidelity_passed_ += g.status == Status::Pass;
            fidelity_failed_ += g.status == Status::Fail;
        }

        SimOutcome o;
        std::ostringstream digest;
        digest << std::hexfloat;
        for (const auto &[name, v] : m.all())
            digest << name << '=' << v << '\n';
        // The sweep's server jobs, looked up by resubmitting them: the
        // scheduler deduplicates each onto its finished slot.
        const auto apps = hh::workload::batchApplications();
        for (unsigned a = 0; a < scale_.servers && a < apps.size(); ++a) {
            for (const auto kind : hh::bench::evaluatedSystems()) {
                const cl::SystemConfig cfg = systemConfig(kind);
                const auto &res = state_->sched.serverResult(
                    state_->sched.addServer(cfg, apps[a].name,
                                            scale_.seed));
                digest << hh::exp::encodeServerResults(res) << '\n';
                checkServices(o, res.services, cfg, 1);
                o.simUs += res.elapsedSec * 1e6;
                if (kind == cl::SystemKind::HardHarvestBlock) {
                    o.batchTput += res.batchThroughput;
                    if (a == 0)
                        o.p50Ms = res.avgP50Ms();
                }
            }
        }
        o.digest = digest.str();
        o.p99Ms = m.has("fig11.hhb_p99") ? m.get("fig11.hhb_p99") : 0;
        if (fidelity_failed_ > 0 || fidelity_passed_ == 0) {
            o.error = "FidelityGate: " + std::to_string(fidelity_failed_) +
                      " failed, " + std::to_string(fidelity_passed_) +
                      " passed";
        }
        return o;
    }

    hh::bench::BenchScale scale_;
    unsigned workers_;
    std::unique_ptr<State> state_;
    hh::exp::JobScheduler::Stats stats_;
    double sched_run_s_ = 0;
    double sched_cpu_s_ = 0;
    double fidelity_passed_ = 0;
    double fidelity_failed_ = 0;
};

// ------------------------------------------------------------ main

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;
    std::string spansPath;
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: simbench --workload cluster|fleet|repro "
                 "--seed N --seconds S --trace 0|1 [--tiny] "
                 "[--spans out.json]\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--workload" && hasValue) {
            a.workload = argv[++i];
        } else if (arg == "--seed" && hasValue) {
            a.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && hasValue) {
            a.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace" && hasValue) {
            a.trace = std::string(argv[++i]) == "1";
        } else if (arg == "--tiny") {
            a.tiny = true;
        } else if (arg == "--spans" && hasValue) {
            a.spansPath = argv[++i];
        } else {
            usage();
        }
    }
    if (!(a.seconds >= 0))
        usage();
    return a;
}

std::unique_ptr<Workload>
makeWorkload(const Args &a, unsigned workers)
{
    const Scale &sc = a.tiny ? kTinyScale : kBenchScale;
    if (a.workload == "cluster")
        return std::make_unique<ClusterWorkload>(sc, a.seed, workers);
    if (a.workload == "fleet")
        return std::make_unique<FleetWorkload>(sc, a.seed, workers);
    if (a.workload == "repro")
        return std::make_unique<ReproWorkload>(sc, a.seed, workers);
    usage();
}

/**
 * Timed repetitions of set-up + run, with their checks. Host costs are
 * process CPU seconds (all threads); wall time is kept for reference
 * only, because vCPU steal on a shared host stretches it in bursts.
 */
struct Timed
{
    std::vector<double> setupCpuS; //!< Mean set-up of each repetition.
    std::vector<double> runCpuS;
    std::vector<double> runWallS;
    SimOutcome first;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string error;
};

Timed
timedReps(Workload &w, double seconds, unsigned minReps)
{
    Timed t;
    const auto t0 = Clock::now();
    for (unsigned rep = 0; rep < minReps || secondsSince(t0) < seconds;
         ++rep) {
        double setupSum = 0;
        for (unsigned i = 0; i < w.setupRepeats(); ++i) {
            if (i)
                w.teardown();
            // Every set-up starts from a trimmed heap and pays the page
            // faults a fresh process pays; reusing the previous run's
            // freed memory made set-up times bimodal across runs.
            malloc_trim(0);
            const double s0 = cpuSeconds();
            w.setup();
            setupSum += cpuSeconds() - s0;
        }
        t.setupCpuS.push_back(setupSum / w.setupRepeats());
        const double c0 = cpuSeconds();
        const auto r0 = Clock::now();
        SimOutcome o = w.run();
        t.runWallS.push_back(secondsSince(r0));
        t.runCpuS.push_back(cpuSeconds() - c0);
        w.teardown();
        std::printf("simbench: rep %u setup cpu %.6f s run cpu %.6f s "
                    "wall %.6f s simulated %.0f us\n",
                    rep, t.setupCpuS.back(), t.runCpuS.back(),
                    t.runWallS.back(), o.simUs);
        std::fflush(stdout);

        if (o.error.empty() && rep > 0 && o.digest != t.first.digest)
            o.error = "repetition " + std::to_string(rep) +
                      " is not byte-identical to the first";
        t.attempted += o.attempted;
        t.failed += o.error.empty() ? o.failed : o.attempted;
        if (t.error.empty())
            t.error = o.error;
        if (rep == 0)
            t.first = std::move(o);
    }
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const unsigned cores = usableCores();
    const unsigned workers = std::min(4u, cores);
    const double calibNs = calibrationNs();
    std::printf("simbench: workload=%s seed=%llu seconds=%g trace=%d "
                "scale=%s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, args.tiny ? "tiny" : "bench");
    std::printf("simbench: host nproc=%u workers=%u cpu=\"%s\" "
                "calib_ns=%.0f\n",
                cores, workers, cpuModel().c_str(), calibNs);
    std::fflush(stdout);

    auto w = makeWorkload(args, workers);
    // --trace 1 needs one untraced repetition as the overhead base.
    Timed timed = timedReps(*w, args.trace ? 0 : args.seconds,
                            args.trace ? 1 : 3);
    std::string error = timed.error;
    // The library entry-point cross-check costs one more simulation, so it
    // rides with the traced run.
    const SimOutcome ref = args.trace ? w->reference() : SimOutcome();
    if (error.empty() && !ref.digest.empty() &&
        ref.digest != timed.first.digest)
        error = "benchmark path differs from runCluster";
    if (error.empty() && !ref.error.empty())
        error = ref.error;

    std::uint64_t attempted = timed.attempted;
    std::uint64_t failed = timed.failed;
    std::string metrics;
    if (!args.trace) {
        MetricTable e2e(kEndToEnd);
        const SimOutcome &o = timed.first;
        e2e.set("cpu_s_per_sim_s", median(timed.runCpuS) * 1e6 / o.simUs);
        e2e.set("setup_s", median(timed.setupCpuS));
        e2e.set("peak_rss_mb", peakRssMb());
        e2e.set("primary_p99_ms", o.p99Ms);
        e2e.set("primary_p50_ms", o.p50Ms);
        e2e.set("batch_tasks_per_s", o.batchTput);
        e2e.set("completed_frac",
                attempted ? 1.0 - static_cast<double>(failed) /
                                      static_cast<double>(attempted)
                          : 0);
        std::printf("simbench: %zu repetitions\n", timed.runCpuS.size());
        metrics = e2e.json();
    } else {
        MetricTable layers(kPerLayer);
        SpanLog log(args.seed);
        hh::sim::prof::reset();
        hh::sim::prof::setEnabled(true);
        TickCalibration ticks;
        ticks.begin();
        TracedRun tr = w->traced(log, layers);
        ticks.end();
        hh::sim::prof::setEnabled(false);
        const ProfTotals prof = profTotals();
        const std::string extraError = w->untracedLayers(layers);

        attempted += tr.outcome.attempted;
        failed += tr.outcome.error.empty() ? tr.outcome.failed
                                           : tr.outcome.attempted;
        if (error.empty() && !tr.outcome.error.empty())
            error = "traced run: " + tr.outcome.error;
        if (error.empty() && tr.outcome.digest != timed.first.digest)
            error = "traced run differs from the timed run";
        if (error.empty())
            error = extraError;

        const auto site = [&](const char *name) {
            const auto it = prof.find(name);
            return it == prof.end() ? ProfSite{} : it->second;
        };
        const auto ns = [&](const char *name) {
            return ticks.ns(site(name).cycles);
        };
        const double simRun = ns("sim.run");
        const double harvest = ns("server.replay_harvest");
        const double segment = ns("server.replay_segment");
        const double hier = ns("cache.hierarchy_access");
        const double array = ns("cache.array_access");
        const double zipf = ns("workload.zipf_sample");
        const double hierCalls =
            static_cast<double>(site("cache.hierarchy_access").hits);
        const double arrayCalls =
            static_cast<double>(site("cache.array_access").hits);
        const double untracedRunS = median(timed.runWallS);

        layers.set("sim.run.ns", simRun);
        layers.set("sim.self_ns", simRun - harvest - segment);
        layers.set("cluster.replay_harvest.ns", harvest);
        layers.set("cluster.replay_harvest.calls",
                   static_cast<double>(site("server.replay_harvest").hits));
        layers.set("cluster.replay_harvest.share",
                   simRun > 0 ? harvest / simRun : 0);
        layers.set("cluster.replay_segment.ns", segment);
        layers.set("cluster.replay_segment.calls",
                   static_cast<double>(site("server.replay_segment").hits));
        layers.set("cluster.replay.self_ns",
                   harvest + segment - hier - zipf);
        const double setupCpu = median(timed.setupCpuS);
        const double runCpu = median(timed.runCpuS);
        layers.set("cluster.server_setup.share",
                   setupCpu / (setupCpu + runCpu));
        layers.set("host.run_wall_s", untracedRunS);
        layers.set("host.run_cpu_s", runCpu);
        layers.set("cache.hierarchy_access.self_ns", hier - array);
        layers.set("cache.hierarchy_access.calls", hierCalls);
        layers.set("cache.ns_per_access",
                   hierCalls > 0 ? hier / hierCalls : 0);
        layers.set("cache.array_access.ns", array);
        layers.set("cache.array_access.calls", arrayCalls);
        layers.set("cache.probes_per_access",
                   hierCalls > 0 ? arrayCalls / hierCalls : 0);
        layers.set("workload.zipf_sample.ns", zipf);
        layers.set("workload.zipf_sample.calls",
                   static_cast<double>(site("workload.zipf_sample").hits));
        layers.set("host.calib_ns", calibNs);
        layers.set("host.trace_overhead_pct",
                   untracedRunS > 0
                       ? 100.0 * (tr.runS / untracedRunS - 1.0)
                       : 0);
        metrics = layers.json();

        if (!args.spansPath.empty() && !log.write(args.spansPath))
            std::fprintf(stderr, "simbench: cannot write %s\n",
                         args.spansPath.c_str());
    }

    if (!error.empty()) {
        std::printf("simbench: CHECK FAILED: %s\n", error.c_str());
        failed = attempted;
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                error.empty() ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), metrics.c_str());
    return error.empty() ? 0 : 1;
}
