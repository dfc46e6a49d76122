/**
 * @file
 * Time-weighted utilization tracking.
 *
 * Core utilization in the paper (Fig 2, Fig 3, Section 6.7) is the
 * fraction of wall-clock time a core spends executing work. The
 * tracker integrates busy time over simulated time.
 */

#ifndef HH_STATS_UTILIZATION_H
#define HH_STATS_UTILIZATION_H

#include <cstdint>

#include "sim/time.h"
#include "snapshot/archive.h"

namespace hh::stats {

/**
 * Integrates the busy time of one resource (e.g. a core).
 */
class UtilizationTracker
{
  public:
    /**
     * Mark the resource busy/idle at simulated time @p now.
     * Repeated calls with the same state are harmless.
     */
    void setBusy(hh::sim::Cycles now, bool busy);

    /**
     * Utilization over [start, now]: busyCycles / elapsed.
     *
     * @param now Current simulated time (>= last transition).
     */
    double utilization(hh::sim::Cycles now) const;

    /** Total busy cycles accumulated up to @p now. */
    hh::sim::Cycles busyCycles(hh::sim::Cycles now) const;

    void
    serialize(hh::snap::Archive &ar)
    {
        ar.io(start_);
        ar.io(accumulated_);
        ar.io(last_change_);
        ar.io(busy_);
    }

  private:
    hh::sim::Cycles start_ = 0;
    hh::sim::Cycles accumulated_ = 0;
    hh::sim::Cycles last_change_ = 0;
    bool busy_ = false;
};

} // namespace hh::stats

#endif // HH_STATS_UTILIZATION_H
