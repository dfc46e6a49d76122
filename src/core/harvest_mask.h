/**
 * @file
 * The HarvestMask register (§4.2.1).
 *
 * Per VM, a 5-byte register holding one bit per way for each of the
 * five partitionable structures (L1D 12 ways, L1I 8, L2 8, L1 TLB 4,
 * L2 TLB 8 = 40 bits). A set bit marks the way as part of the
 * harvest region. When a core is (re)assigned to a VM, the mask
 * reconfigures the private caches/TLBs CAT-style before execution
 * starts.
 */

#ifndef HH_CORE_HARVEST_MASK_H
#define HH_CORE_HARVEST_MASK_H

#include <array>
#include <cstdint>

#include "cache/config.h"
#include "snapshot/archive.h"

namespace hh::core {

/** The five way-partitioned structures. */
enum class MaskedStruct : unsigned
{
    L1D = 0,
    L1I = 1,
    L2 = 2,
    L1Tlb = 3,
    L2Tlb = 4,
};

inline constexpr unsigned kNumMaskedStructs = 5;

/**
 * The per-VM HarvestMask register.
 */
class HarvestMask
{
  public:
    /** Way counts of each structure (defaults follow Table 1). */
    struct StructureWays
    {
        std::array<std::uint8_t, kNumMaskedStructs> ways{12, 8, 8, 4, 8};
    };

    /** Default-construct with Table 1 way counts. */
    HarvestMask() : HarvestMask(StructureWays{}) {}

    explicit HarvestMask(const StructureWays &ways);

    /** Set the harvest-way mask of one structure. */
    void setMask(MaskedStruct s, hh::cache::WayMask mask);

    /** Harvest-way mask of one structure. */
    hh::cache::WayMask mask(MaskedStruct s) const;

    /**
     * Configure every structure so the lowest
     * round(fraction * ways) ways are the harvest region, keeping at
     * least one way on each side.
     */
    void setFraction(double fraction);

    /** Pack all masks into the 5-byte hardware image. */
    std::array<std::uint8_t, 5> pack() const;

    /** Load all masks from a 5-byte hardware image. */
    void unpack(const std::array<std::uint8_t, 5> &bytes);

    /** Way count of a structure. */
    unsigned wayCount(MaskedStruct s) const;

    /** Register size (§6.8). */
    static constexpr std::uint64_t storageBytes() { return 5; }

    /** Save/restore (way counts are construction-time constants). */
    void serialize(hh::snap::Archive &ar) { ar.io(masks_); }

  private:
    StructureWays counts_;
    /** Per-structure masks; L1D needs 12 bits so uint16 each. */
    std::array<std::uint16_t, kNumMaskedStructs> masks_{};
};

} // namespace hh::core

#endif // HH_CORE_HARVEST_MASK_H
