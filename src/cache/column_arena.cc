#include "cache/column_arena.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <new>

#include "cache/set_assoc.h"
#include "sim/log.h"

#if defined(__SANITIZE_ADDRESS__)
#define HH_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HH_ARENA_ASAN 1
#endif
#endif
#if defined(HH_ARENA_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace hh::cache {

namespace {

/**
 * Under AddressSanitizer, mark [p, p + n) unreadable (or readable
 * again): the mapping is not heap memory, so ASan would otherwise let
 * a probe read past its columns unnoticed.
 */
void
poison([[maybe_unused]] const char *p, [[maybe_unused]] std::size_t n,
       [[maybe_unused]] bool on)
{
#if defined(HH_ARENA_ASAN)
    if (on)
        ASAN_POISON_MEMORY_REGION(p, n);
    else
        ASAN_UNPOISON_MEMORY_REGION(p, n);
#endif
}

constexpr std::size_t
roundUp(std::size_t n, std::size_t to)
{
    return (n + to - 1) / to * to;
}

char *
mapAnonymous(std::size_t bytes)
{
    void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return static_cast<char *>(p);
}

} // namespace

ColumnArena::Columns
ColumnArena::bytesFor(const Geometry &g)
{
    const std::size_t sets = g.sets;
    return {roundUp(sets * g.ways * sizeof(Addr), kLine),
            roundUp(sets * SetAssocArray::rowWords(g.ways) *
                        sizeof(std::uint64_t),
                    kLine)};
}

ColumnArena::ColumnArena(std::size_t capacity)
    : capacity_(roundUp(capacity, kLine))
{
    if (capacity_ == 0)
        return;
    mapped_ = roundUp(capacity_,
                      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE)));
    if (capacity_ < kHugePage) {
        base_ = mapAnonymous(mapped_);
    } else {
        // Map a huge page more than needed, then give back the head
        // below the first 2 MiB boundary and the tail past the arena.
        char *const raw = mapAnonymous(mapped_ + kHugePage);
        char *const raw_end = raw + mapped_ + kHugePage;
        const auto at = reinterpret_cast<std::uintptr_t>(raw);
        base_ = raw + (roundUp(at, kHugePage) - at);
        char *const end = base_ + mapped_;
        if (base_ != raw)
            ::munmap(raw, static_cast<std::size_t>(base_ - raw));
        if (end != raw_end)
            ::munmap(end, static_cast<std::size_t>(raw_end - end));
#if defined(MADV_HUGEPAGE)
        // Advice only: without transparent huge pages (or with them
        // set to "never") the arena simply stays in base pages.
        ::madvise(base_, mapped_, MADV_HUGEPAGE);
#endif
    }
    poison(base_, mapped_, true);
}

ColumnArena::~ColumnArena()
{
    if (!base_)
        return;
    // Shadow state outlives the mapping; a later one at this address
    // must not inherit it.
    poison(base_, mapped_, false);
    ::munmap(base_, mapped_);
}

void *
ColumnArena::take(std::size_t bytes)
{
    const std::size_t n = roundUp(bytes, kLine);
    if (n > capacity_ - used_)
        hh::sim::panic("ColumnArena: take of ", n, " bytes with ",
                       capacity_ - used_, " of ", capacity_, " left");
    char *p = base_ + used_;
    used_ += n;
    poison(p, bytes, false);
    return p;
}

} // namespace hh::cache
