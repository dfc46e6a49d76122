/**
 * @file
 * Hierarchical metric registry.
 *
 * Components register their existing Counter / LatencyRecorder /
 * UtilizationTracker objects and plain gauges under dotted names
 * ("core12.l2.miss", "vm3.qm.ready") at construction; the server
 * layer prefixes a server id when exporting
 * ("server0.core12.l2.miss"). The registry
 * is per-ServerSim — never global — so parallel cluster runs share
 * nothing and stay bit-identical at any worker count.
 *
 * Names must be unique and non-empty; violating either is a
 * registration-time panic() (a silent collision would corrupt every
 * exported time series).
 *
 * The registry only reads metrics. Post-warmup statistics come from
 * each VM's warmupSkip, which drops the first requests' samples when
 * they are recorded.
 */

#ifndef HH_STATS_REGISTRY_H
#define HH_STATS_REGISTRY_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/time.h"
#include "stats/counter.h"
#include "stats/percentile.h"
#include "stats/utilization.h"

namespace hh::stats {

/**
 * Registry of named scalar metrics. Composite objects (latency
 * recorders, utilization trackers) expand into several derived
 * scalars with suffixed names so one snapshot/export path covers
 * everything.
 */
class MetricRegistry
{
  public:
    /** Reads the current value of one scalar metric. */
    using Getter = std::function<double()>;
    /** Time source for time-integrated metrics (utilization). */
    using NowFn = std::function<hh::sim::Cycles()>;

    /** One sampled (name, value) pair. */
    struct Sample
    {
        std::string name;
        double value = 0;
    };

    /**
     * Register an arbitrary gauge.
     *
     * @param name Unique dotted metric name (panics on empty or
     *             duplicate).
     * @param get  Value callback; must outlive the registry user.
     */
    void registerGauge(const std::string &name, Getter get);

    /** Register a monotonic counter object. */
    void registerCounter(const std::string &name, Counter &c);

    /** Register a raw integral counter (hits/misses members etc.). */
    void registerCounter(const std::string &name,
                         const std::uint64_t &v);

    /** Expands to name.count / .mean. */
    void registerLatency(const std::string &name, LatencyRecorder &r);

    /**
     * Register a busy-time integrator as a utilization gauge plus a
     * busy-cycle counter (name.util, name.cycles).
     *
     * @param now Current-simulated-time source the integrals are
     *            evaluated at.
     */
    void registerUtilization(const std::string &name,
                             UtilizationTracker &u, NowFn now);

    /** Number of registered scalar metrics. */
    std::size_t size() const { return metrics_.size(); }

    bool contains(const std::string &name) const
    {
        return metrics_.count(name) != 0;
    }

    /** Current value of every metric, in name order. */
    std::vector<Sample> snapshot() const;

    /** Value of one metric; panics if unknown. */
    double value(const std::string &name) const;

    /** Metric names in registration (= lexicographic) order. */
    std::vector<std::string> names() const;

    /**
     * Flat JSON object of every metric, sorted by name; an optional
     * @p prefix (e.g. "server0") is prepended to each key.
     */
    std::string json(const std::string &prefix = "") const;

  private:
    std::map<std::string, Getter> metrics_;
};

} // namespace hh::stats

#endif // HH_STATS_REGISTRY_H
