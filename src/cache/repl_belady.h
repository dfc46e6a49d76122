/**
 * @file
 * Belady's offline-optimal replacement (the "ideal" bar of Fig 14).
 *
 * Belady evicts the resident line whose next use lies farthest in the
 * future. That requires knowing the future, so this policy only works
 * in trace replay: a NextUseOracle is built from the complete access
 * trace up front, and the policy tracks its position in the trace as
 * accesses are replayed (each access produces exactly one touch() or
 * fill() call).
 */

#ifndef HH_CACHE_REPL_BELADY_H
#define HH_CACHE_REPL_BELADY_H

#include <cstdint>
#include <utility>
#include <vector>

#include "cache/replacement.h"

namespace hh::cache {

/**
 * Precomputed next-use positions for every key in a trace.
 */
class NextUseOracle
{
  public:
    /** Build from the full, ordered trace of access keys. */
    explicit NextUseOracle(const std::vector<Addr> &trace);

    /**
     * Position of the first access to @p key strictly after @p pos.
     *
     * @return Trace position, or kNever if the key is not accessed
     *         again.
     */
    std::uint64_t nextUse(Addr key, std::uint64_t pos) const;

    static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  private:
    /**
     * Every (key, position) of the trace, sorted: one flat block
     * instead of a vector per key, whose many small allocations
     * fragmented the heap of a worker that builds oracles.
     */
    std::vector<std::pair<Addr, std::uint64_t>> uses_;
};

/**
 * Offline-optimal replacement over a fixed trace.
 */
class BeladyPolicy : public ReplacementPolicy
{
  public:
    /** @param oracle Next-use oracle for the trace being replayed.
     *         Must outlive the policy. */
    explicit BeladyPolicy(const NextUseOracle &oracle)
        : oracle_(oracle)
    {}

    unsigned victim(const SetContext &ctx, bool incoming_shared) override;
    void touch(std::uint8_t &rrpv) override;
    void fill(std::uint8_t &rrpv) override;
    const char *name() const override { return "Belady"; }

    /** Current trace position (number of completed accesses). */
    std::uint64_t position() const { return pos_; }

  private:
    const NextUseOracle &oracle_;
    std::uint64_t pos_ = 0;
};

} // namespace hh::cache

#endif // HH_CACHE_REPL_BELADY_H
