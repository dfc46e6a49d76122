/**
 * @file
 * Named monotonic event counter for simulation statistics.
 */

#ifndef HH_STATS_COUNTER_H
#define HH_STATS_COUNTER_H

#include <cstdint>
#include <string>

#include "snapshot/archive.h"

namespace hh::stats {

/**
 * Monotonically increasing event counter.
 */
class Counter
{
  public:
    explicit Counter(std::string name = "") : name_(std::move(name)) {}

    /** Increment by @p n (default 1). */
    void inc(std::uint64_t n = 1) { value_ += n; }

    /** Current count. */
    std::uint64_t value() const { return value_; }

    const std::string &name() const { return name_; }

    /** Save/restore the count (the name is construction-time). */
    void serialize(hh::snap::Archive &ar) { ar.io(value_); }

  private:
    std::string name_;
    std::uint64_t value_ = 0;
};

} // namespace hh::stats

#endif // HH_STATS_COUNTER_H
