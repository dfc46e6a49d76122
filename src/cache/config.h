/**
 * @file
 * Geometry descriptions and shared types for caches and TLBs.
 *
 * Defaults follow Table 1 of the paper (Sunny Cove-like cores):
 *   L1D 48 KB/12-way/5-cycle RT, L1I 32 KB/8-way/5-cycle RT,
 *   L2 512 KB/8-way/13-cycle RT, L3 2 MB per core/16-way/36-cycle RT,
 *   L1 TLB 128-entry/4-way/2-cycle RT, L2 TLB 2048-entry/8-way/12-cycle.
 */

#ifndef HH_CACHE_CONFIG_H
#define HH_CACHE_CONFIG_H

#include <cstdint>

#include "sim/time.h"

namespace hh::cache {

/** Byte-addressed (or key-space) address. */
using Addr = std::uint64_t;

/** Way bitmask; bit i set means way i is a member. */
using WayMask = std::uint64_t;

/** Replacement policy selector. */
enum class ReplKind
{
    LRU,         //!< Vanilla least-recently-used.
    RRIP,        //!< Static re-reference interval prediction (SRRIP).
    HardHarvest, //!< Paper Algorithm 1 with eviction candidates.
    CDP,         //!< Code-Data-Prioritization variant (paper 6.3).
    Belady,      //!< Offline optimal (trace replay only).
};

/** Printable name of a replacement kind. */
const char *replKindName(ReplKind kind);

/**
 * Geometry of one set-associative structure (cache level or TLB).
 */
struct Geometry
{
    /**
     * Number of sets. Need not be a power of 2: L3 partitions have
     * cores x 2048 sets (12,288 for 6 cores), which setIndex() maps
     * by modulo instead of a mask.
     */
    std::uint32_t sets = 64;
    std::uint32_t ways = 8;           //!< Associativity.
    hh::sim::Cycles latency = 5;      //!< Round-trip hit latency.

    std::uint32_t
    entries() const
    {
        return sets * ways;
    }
};

/** Line size shared by all caches (Table 1). */
inline constexpr std::uint32_t kLineBytes = 64;

/** Page size assumed by the TLB model. */
inline constexpr std::uint32_t kPageBytes = 4096;

/** L1 data cache: 48 KB, 12-way, 64 B lines -> 64 sets. */
inline constexpr Geometry kL1D{64, 12, 5};

/** L1 instruction cache: 32 KB, 8-way -> 64 sets. */
inline constexpr Geometry kL1I{64, 8, 5};

/** L2 cache: 512 KB, 8-way -> 1024 sets. */
inline constexpr Geometry kL2{1024, 8, 13};

/** L3 slice per core: 2 MB, 16-way -> 2048 sets. */
inline constexpr Geometry kL3PerCore{2048, 16, 36};

/** L1 TLB: 128 entries, 4-way. */
inline constexpr Geometry kL1Tlb{32, 4, 2};

/** L2 TLB: 2048 entries, 8-way. */
inline constexpr Geometry kL2Tlb{256, 8, 12};

/** Page-table walk cost on an L2 TLB miss (model constant). */
inline constexpr hh::sim::Cycles kPageWalkCycles = 150;

/**
 * Scale the number of ways of a geometry (Fig 7's 75/50/25% sweeps),
 * keeping the number of sets constant as the paper does.
 *
 * @param g        Base geometry.
 * @param fraction Fraction of ways to keep, in (0, 1]; at least one
 *                 way is always kept.
 */
Geometry scaleWays(const Geometry &g, double fraction);

} // namespace hh::cache

#endif // HH_CACHE_CONFIG_H
