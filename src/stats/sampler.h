/**
 * @file
 * Periodic time-series sampler over a MetricRegistry.
 *
 * A PeriodicTask (kSamplerTick) snapshots all registered metrics into
 * one row every @p period simulated cycles. The sampler is read-only
 * with respect to simulation state, so enabling it cannot perturb
 * results; the owner must stop() it once the run's work is done or
 * its self-rescheduling tick would keep the event queue alive to the
 * horizon.
 */

#ifndef HH_STATS_SAMPLER_H
#define HH_STATS_SAMPLER_H

#include <string>
#include <vector>

#include "sim/periodic_task.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "snapshot/archive.h"
#include "stats/registry.h"

namespace hh::stats {

/** One sampled row: simulated time plus the value of every column. */
struct SampleRow
{
    hh::sim::Cycles t = 0;
    std::vector<double> values;

    void
    serialize(hh::snap::Archive &ar)
    {
        ar.io(t);
        ar.io(values);
    }
};

/**
 * A labelled sampled time series (one per server in cluster runs).
 */
struct SampledSeries
{
    std::string label;                //!< e.g. "server0".
    std::vector<std::string> columns; //!< Metric names.
    std::vector<SampleRow> rows;
};

/**
 * Samples a registry at a fixed simulated-time cadence.
 */
class MetricSampler
{
  public:
    /**
     * @param sim    Simulation driver supplying time and scheduling.
     * @param reg    Registry to sample (must outlive the sampler).
     * @param period Sampling period in cycles (start() panics on 0).
     */
    MetricSampler(hh::sim::Simulator &sim, const MetricRegistry &reg,
                  hh::sim::Cycles period);

    /**
     * Record an initial row at the current time and start the
     * periodic tick. Columns are frozen at this point.
     */
    void start();

    /**
     * Record a final row and cancel the pending tick. Safe to call
     * more than once.
     */
    void stop();

    const std::vector<std::string> &columns() const { return columns_; }
    const std::vector<SampleRow> &rows() const { return rows_; }

    /** Move the collected series out (label filled by the caller). */
    SampledSeries takeSeries();

    /** The tick chain; the owner's re-arm dispatcher calls rearm(). */
    hh::sim::PeriodicTask &task() { return task_; }

    /**
     * Save/restore the tick state and the collected rows. The
     * restoring owner must construct the sampler (same registry, same
     * period) *without* calling start(); the pending tick event itself
     * is restored by the event queue via task().rearm().
     */
    void
    serialize(hh::snap::Archive &ar)
    {
        task_.serialize(ar);
        ar.io(columns_);
        ar.io(rows_);
    }

  private:
    void sampleRow();

    hh::sim::Simulator &sim_;
    const MetricRegistry &reg_;
    hh::sim::Cycles period_;
    hh::sim::PeriodicTask task_;
    std::vector<std::string> columns_;
    std::vector<SampleRow> rows_;
};

/**
 * Render sampled series as CSV: header "server,t_ms,<columns...>",
 * then one row per sample of each series. Columns are taken from the
 * first series; all series of one export must share them.
 */
std::string metricsCsv(const std::vector<SampledSeries> &series);

/** Write metricsCsv() to @p path; false on I/O failure. */
bool writeMetricsCsv(const std::string &path,
                     const std::vector<SampledSeries> &series);

} // namespace hh::stats

#endif // HH_STATS_SAMPLER_H
