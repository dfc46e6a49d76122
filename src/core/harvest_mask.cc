#include "core/harvest_mask.h"

#include <algorithm>
#include <cmath>

#include "sim/log.h"

namespace hh::core {

HarvestMask::HarvestMask(const StructureWays &ways) : counts_(ways)
{
    unsigned total = 0;
    for (unsigned i = 0; i < kNumMaskedStructs; ++i) {
        if (counts_.ways[i] == 0 || counts_.ways[i] > 16)
            hh::sim::fatal("HarvestMask: structure way count must be "
                           "in [1, 16]");
        total += counts_.ways[i];
    }
    if (total > 40)
        hh::sim::fatal("HarvestMask: masks exceed the 5-byte register");
}

void
HarvestMask::setMask(MaskedStruct s, hh::cache::WayMask mask)
{
    const auto i = static_cast<unsigned>(s);
    const std::uint16_t limit =
        static_cast<std::uint16_t>((1u << counts_.ways[i]) - 1);
    masks_[i] = static_cast<std::uint16_t>(mask) & limit;
}

hh::cache::WayMask
HarvestMask::mask(MaskedStruct s) const
{
    return masks_[static_cast<unsigned>(s)];
}

unsigned
HarvestMask::wayCount(MaskedStruct s) const
{
    return counts_.ways[static_cast<unsigned>(s)];
}

void
HarvestMask::setFraction(double fraction)
{
    for (unsigned i = 0; i < kNumMaskedStructs; ++i) {
        const unsigned ways = counts_.ways[i];
        auto n = static_cast<unsigned>(
            std::lround(fraction * static_cast<double>(ways)));
        n = std::min(std::max(1u, n), ways - 1 > 0 ? ways - 1 : 1u);
        masks_[i] = static_cast<std::uint16_t>((1u << n) - 1);
    }
}

std::array<std::uint8_t, 5>
HarvestMask::pack() const
{
    // Concatenate the per-structure masks into a 40-bit little-endian
    // stream, each field counts_.ways[i] bits wide.
    std::uint64_t stream = 0;
    unsigned shift = 0;
    for (unsigned i = 0; i < kNumMaskedStructs; ++i) {
        stream |= static_cast<std::uint64_t>(masks_[i]) << shift;
        shift += counts_.ways[i];
    }
    std::array<std::uint8_t, 5> bytes{};
    for (unsigned b = 0; b < 5; ++b)
        bytes[b] = static_cast<std::uint8_t>(stream >> (8 * b));
    return bytes;
}

void
HarvestMask::unpack(const std::array<std::uint8_t, 5> &bytes)
{
    std::uint64_t stream = 0;
    for (unsigned b = 0; b < 5; ++b)
        stream |= static_cast<std::uint64_t>(bytes[b]) << (8 * b);
    unsigned shift = 0;
    for (unsigned i = 0; i < kNumMaskedStructs; ++i) {
        const std::uint64_t field_mask =
            (std::uint64_t{1} << counts_.ways[i]) - 1;
        masks_[i] =
            static_cast<std::uint16_t>((stream >> shift) & field_mask);
        shift += counts_.ways[i];
    }
}

} // namespace hh::core
