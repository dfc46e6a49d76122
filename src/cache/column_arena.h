/**
 * @file
 * Host memory for the tag and metadata-row columns of set-associative
 * arrays.
 *
 * A ColumnArena is one anonymous mapping, sized up front, from which
 * arrays carve their columns in order. A server builds every cache
 * array it owns (36 cores' private levels plus each VM's L3
 * partition, ~19 MB for Table 1) in one arena, so the columns fault
 * in as a few 2 MiB huge pages instead of thousands of 4 KiB ones.
 * An array built without an arena owns a private one sized for
 * itself.
 *
 * Nothing simulated depends on the arena: the columns keep their
 * layout and 64-byte alignment wherever they live.
 */

#ifndef HH_CACHE_COLUMN_ARENA_H
#define HH_CACHE_COLUMN_ARENA_H

#include <cstddef>

#include "cache/config.h"

namespace hh::cache {

class ColumnArena
{
  public:
    /** Host cache line: every take starts on one. */
    static constexpr std::size_t kLine = 64;

    /** Huge-page size the mapping is aligned to once it spans one. */
    static constexpr std::size_t kHugePage = std::size_t{2} << 20;

    /** The two column sizes of one array, each a multiple of kLine. */
    struct Columns
    {
        std::size_t tags = 0; //!< sets * ways tags
        std::size_t rows = 0; //!< sets metadata rows

        std::size_t total() const { return tags + rows; }
    };

    /** The columns a SetAssocArray of @p g takes from its arena. */
    static Columns bytesFor(const Geometry &g);

    /**
     * Map @p capacity bytes (rounded up to kLine). From kHugePage up
     * the mapping starts on a kHugePage boundary and is advised
     * MADV_HUGEPAGE, so every whole 2 MiB range in it may fault in as
     * one huge page; the tail past the last boundary stays in base
     * pages, so resident memory stays the bytes used. Throws
     * std::bad_alloc when the host refuses the mapping.
     */
    explicit ColumnArena(std::size_t capacity);
    ~ColumnArena();

    ColumnArena(const ColumnArena &) = delete;
    ColumnArena &operator=(const ColumnArena &) = delete;

    /**
     * The next @p bytes of the mapping, starting on a kLine boundary
     * and never touched before; the arena's cursor then moves to the
     * next boundary. Panics when they do not fit in what is left.
     * Under AddressSanitizer every byte not handed out by a take,
     * including the padding up to the boundary, stays poisoned.
     */
    void *take(std::size_t bytes);

    std::size_t capacity() const { return capacity_; }
    std::size_t used() const { return used_; }
    const void *base() const { return base_; }

  private:
    char *base_ = nullptr;
    std::size_t capacity_ = 0;
    std::size_t mapped_ = 0; //!< capacity_ rounded up to host pages
    std::size_t used_ = 0;
};

} // namespace hh::cache

#endif // HH_CACHE_COLUMN_ARENA_H
