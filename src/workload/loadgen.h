/**
 * @file
 * Open-loop load generation.
 *
 * Section 5: "we execute with real-world invocation rates, using an
 * open-loop load generator that keeps the load the same across all
 * systems (i.e., the client is independent of the server)". We model
 * Poisson arrivals whose rate is modulated over time by a bursty
 * multiplier matching the fluctuations of the Alibaba traces (Fig 3):
 * a low base load with occasional multi-x spikes.
 */

#ifndef HH_WORKLOAD_LOADGEN_H
#define HH_WORKLOAD_LOADGEN_H

#include <cstdint>
#include <vector>

#include "sim/rng.h"
#include "sim/time.h"
#include "snapshot/archive.h"

namespace hh::workload {

/** Burst-modulation parameters. */
struct BurstConfig
{
    bool enabled = true;
    /** Mean time between bursts (seconds of simulated time). */
    double meanInterArrivalSec = 0.2;
    /** Mean burst duration (seconds). */
    double meanDurationSec = 0.04;
    /** Rate multiplier during a burst. */
    double multiplier = 3.0;
};

/**
 * Open-loop Poisson arrival generator with burst modulation.
 *
 * Arrival times are pre-drawable one at a time: next() returns the
 * absolute time of the next arrival. The generator is independent of
 * server state (open loop), so the same seed produces the same
 * arrival sequence for every evaluated system.
 */
class LoadGenerator
{
  public:
    /**
     * @param baseRps Base arrival rate (requests per second).
     * @param burst   Burst configuration.
     * @param seed    Experiment seed.
     * @param stream  Per-generator stream id.
     */
    LoadGenerator(double baseRps, const BurstConfig &burst,
                  std::uint64_t seed, std::uint64_t stream);

    /** Absolute time of the next arrival (monotonically increasing). */
    hh::sim::Cycles next();

    double baseRps() const { return base_rps_; }

    /**
     * Save/restore the open-loop state: stream position, internal
     * clock and burst on/off process. A restored generator produces
     * exactly the arrival sequence the saved one would have.
     */
    void
    serialize(hh::snap::Archive &ar)
    {
        ar.io(rng_);
        ar.io(clock_sec_);
        ar.io(in_burst_);
        ar.io(burst_edge_sec_);
    }

  private:
    /** Advance the burst on/off process past time @p t. */
    void advanceBurstState(double t_sec);

    double base_rps_;
    BurstConfig burst_;
    hh::sim::Rng rng_;
    double clock_sec_ = 0.0;        //!< Time of last arrival.
    bool in_burst_ = false;
    double burst_edge_sec_ = 0.0;   //!< Next on/off transition.
};

} // namespace hh::workload

#endif // HH_WORKLOAD_LOADGEN_H
