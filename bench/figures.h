/**
 * @file
 * The measured figure harnesses (Figs 11, 14, 17), shared by the
 * paper-figure table (paper_figures.h: the figure binaries and
 * `repro_all`) and simbench, which compiles this file on its own.
 *
 * Each harness splits a figure into the three stages the JobScheduler
 * needs: `submit()` registers the figure's jobs (deduplicated against
 * any other figure's in the same scheduler — fig11's five BFS runs
 * *are* fig17's BFS column), `print()` renders the figure's stdout,
 * and `measure()` fills the named measurements the FidelityGate
 * checks (src/exp/fidelity.h). These are the only measurements:
 * the other table entries print without measuring.
 */

#ifndef HH_BENCH_FIGURES_H
#define HH_BENCH_FIGURES_H

#include <vector>

#include "bench_util.h"
#include "exp/fidelity.h"
#include "exp/scheduler.h"

namespace hh::bench {

/** The five evaluated systems, in figure order. */
const std::vector<hh::cluster::SystemKind> &evaluatedSystems();

/** Figure 11: P99 tail latency of the 5 systems (+ §6.7 busy cores). */
class Fig11Harness
{
  public:
    Fig11Harness(const BenchScale &scale, const ObsOptions &obs);

    void submit(hh::exp::JobScheduler &s);
    /** Legacy-identical stdout; observability into @p sink. */
    void print(const hh::exp::JobScheduler &s, ObsSink &sink) const;
    void measure(const hh::exp::JobScheduler &s,
                 hh::exp::MeasurementSet &m) const;

  private:
    BenchScale scale_;
    std::vector<std::string> series_;
    std::vector<hh::cluster::SystemConfig> cfgs_;
    std::vector<hh::exp::JobScheduler::Handle> handles_;
};

/** Figure 14: L2 hit rate under four replacement policies. */
class Fig14Harness
{
  public:
    explicit Fig14Harness(const BenchScale &scale);

    void submit(hh::exp::JobScheduler &s);
    void print(const hh::exp::JobScheduler &s) const;
    void measure(const hh::exp::JobScheduler &s,
                 hh::exp::MeasurementSet &m) const;

  private:
    /** Per-service hit rates, decoded from the job payloads. */
    struct Rates
    {
        double lru = 0, rrip = 0, hh = 0, bel = 0;
    };
    std::vector<Rates> rates(const hh::exp::JobScheduler &s) const;

    BenchScale scale_;
    std::vector<std::string> services_;
    std::vector<hh::exp::JobScheduler::Handle> handles_;
};

/** Figure 17: Harvest VM throughput normalized to NoHarvest. */
class Fig17Harness
{
  public:
    Fig17Harness(const BenchScale &scale, const ObsOptions &obs);

    void submit(hh::exp::JobScheduler &s);
    void print(const hh::exp::JobScheduler &s, ObsSink &sink) const;
    void measure(const hh::exp::JobScheduler &s,
                 hh::exp::MeasurementSet &m) const;

  private:
    BenchScale scale_;
    std::vector<std::string> apps_;
    std::vector<hh::cluster::SystemConfig> cfgs_; //!< Per system.
    /** handles_[app * 5 + system]. */
    std::vector<hh::exp::JobScheduler::Handle> handles_;
};

} // namespace hh::bench

#endif // HH_BENCH_FIGURES_H
