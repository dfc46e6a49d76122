/**
 * @file
 * Main-memory latency/bandwidth model.
 *
 * Table 1: 128 GB DDR4-3200 behind 4 memory controllers with
 * 102.4 GB/s per socket. Cores replay their (sampled) access streams
 * along per-request time cursors, so accesses arrive with slightly
 * out-of-order timestamps; a strict busy-until-server queue would be
 * poisoned by that. Instead we use a windowed open-queue model: the
 * controller utilization rho is measured over fixed windows of
 * simulated time and each access pays the M/D/1-style expected
 * queueing delay  service * rho / (2 * (1 - rho))  on top of the
 * device latency. One 64 B line at 25.6 GB/s per controller occupies
 * a controller for 2.5 ns (~8 cycles at 3 GHz).
 */

#ifndef HH_MEM_DRAM_H
#define HH_MEM_DRAM_H

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "cache/config.h"
#include "sim/time.h"
#include "snapshot/archive.h"

namespace hh::stats {
class MetricRegistry;
}

namespace hh::mem {

/** DRAM model parameters. */
struct DramConfig
{
    /** Device access latency (row activation + CAS + transfer). */
    hh::sim::Cycles baseLatency = 180; // ~60 ns at 3 GHz
    /** Number of independent memory controllers. */
    unsigned controllers = 4;
    /** Controller occupancy per 64 B access. */
    hh::sim::Cycles servicePerAccess = 8; // ~2.5 ns
    /** Utilization measurement window. */
    hh::sim::Cycles window = 90'000; // 30 us
    /** Utilization cap for the queueing formula (stability). */
    double maxRho = 0.95;
};

/**
 * Bandwidth-limited DRAM behind multiple controllers.
 */
class Dram
{
  public:
    explicit Dram(const DramConfig &cfg = DramConfig{});

    /**
     * Perform one line access.
     *
     * @param now    Simulated time of the access (cursor time).
     * @param key    Line identifier (kept for interface stability).
     * @param weight Number of real accesses this sampled access
     *               represents (bandwidth accounting).
     * @return Latency (device + modelled queueing) of one access.
     */
    hh::sim::Cycles access(hh::sim::Cycles now, hh::cache::Addr key,
                           unsigned weight = 1);

    /** Utilization (rho) measured in the window preceding @p now. */
    double utilization(hh::sim::Cycles now) const;

    /** @name Statistics @{ */
    std::uint64_t accesses() const { return accesses_; }
    double avgQueueDelay() const;

    /**
     * Register "<prefix>.accesses", "<prefix>.queue_delay.avg" and
     * the windowed-utilization gauge "<prefix>.util".
     *
     * @param now Simulated-time source for the utilization gauge;
     *            passed by value as a std::function-compatible
     *            callable returning Cycles.
     */
    void registerMetrics(hh::stats::MetricRegistry &reg,
                         const std::string &prefix,
                         std::function<hh::sim::Cycles()> now);
    /** @} */

    const DramConfig &config() const { return cfg_; }

    /** Save/restore the utilization ring and statistics. */
    void
    serialize(hh::snap::Archive &ar)
    {
        ar.io(ring_);
        ar.io(accesses_);
        ar.io(total_queue_delay_);
    }

  private:
    /** Ring slot holding busy cycles for one utilization window. */
    struct Window
    {
        std::uint64_t id = ~std::uint64_t{0};
        std::uint64_t busy = 0;

        void
        serialize(hh::snap::Archive &ar)
        {
            ar.io(id);
            ar.io(busy);
        }
    };

    static constexpr std::size_t kRing = 64;

    const Window *findWindow(std::uint64_t id) const;
    Window &touchWindow(std::uint64_t id);

    DramConfig cfg_;
    std::array<Window, kRing> ring_;
    std::uint64_t accesses_ = 0;
    std::uint64_t total_queue_delay_ = 0;
};

} // namespace hh::mem

#endif // HH_MEM_DRAM_H
