/**
 * @file
 * Scoped cycle-counter profiling, gated like tracing.
 *
 * A `HH_PROF_SCOPE("name")` at the top of a function accumulates
 * elapsed TSC cycles and hit counts into a process-wide site
 * registry while profiling is enabled. When disabled (the default),
 * the scope constructor is a single untaken branch — cheap enough to
 * leave in the hottest simulator paths permanently, which is the
 * point: `bench_speed` flips the flag for one instrumented pass and
 * emits the per-site totals as the "profile" section of
 * BENCH_sim_speed.json, so every future PR can see where kernel time
 * goes without rebuilding with -pg.
 *
 * Each site keeps kSlots cache-line-padded {cycles, hits} slots; a
 * thread adds into the slot its thread_local id picks (round-robin at
 * first use), so pool workers do not contend on one counter line.
 * reset() and snapshot() walk every slot. Slots stay relaxed atomics:
 * threads beyond kSlots share one, and snapshot() may run mid-pass.
 */

#ifndef HH_SIM_PROF_H
#define HH_SIM_PROF_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace hh::sim::prof {

namespace detail {

inline std::atomic<bool> g_enabled{false};

inline std::uint64_t
now()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/** Counter slots per site: one per thread for typical pool sizes. */
inline constexpr unsigned kSlots = 16;

inline std::atomic<unsigned> g_next_slot{0};

/** This thread's slot index, assigned round-robin at first use. */
inline unsigned
slotId()
{
    thread_local const unsigned id =
        g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots;
    return id;
}

} // namespace detail

/**
 * One instrumented site; constructed as a function-local static by
 * HH_PROF_SCOPE and linked into the global registry on construction.
 */
struct Site
{
    /** One thread group's counters, alone on its cache line. */
    struct alignas(64) Slot
    {
        std::atomic<std::uint64_t> cycles{0};
        std::atomic<std::uint64_t> hits{0};
    };

    const char *name;
    Site *next = nullptr;
    Slot slots[detail::kSlots];

    explicit Site(const char *n);
};

namespace detail {

inline std::mutex g_registry_mutex;
inline Site *g_sites = nullptr;

} // namespace detail

inline Site::Site(const char *n) : name(n)
{
    std::lock_guard<std::mutex> lock(detail::g_registry_mutex);
    next = detail::g_sites;
    detail::g_sites = this;
}

/** True while scopes are recording. */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/** Turn recording on or off (off is the default). */
inline void
setEnabled(bool on)
{
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

/** Zero every registered site (start of a profile pass). */
inline void
reset()
{
    std::lock_guard<std::mutex> lock(detail::g_registry_mutex);
    for (Site *s = detail::g_sites; s; s = s->next) {
        for (Site::Slot &slot : s->slots) {
            slot.cycles.store(0, std::memory_order_relaxed);
            slot.hits.store(0, std::memory_order_relaxed);
        }
    }
}

/** One site's totals at snapshot time. */
struct Sample
{
    std::string name;
    std::uint64_t cycles = 0;
    std::uint64_t hits = 0;
};

/**
 * All site names with any hits, heaviest first. Scopes in different
 * places may share a name (one layer timed per call in one function
 * and per run in another); their sites sum into one sample.
 */
inline std::vector<Sample>
snapshot()
{
    std::vector<Sample> out;
    {
        std::lock_guard<std::mutex> lock(detail::g_registry_mutex);
        for (Site *s = detail::g_sites; s; s = s->next) {
            auto it = std::find_if(out.begin(), out.end(),
                                   [s](const Sample &o) {
                                       return o.name == s->name;
                                   });
            if (it == out.end())
                it = out.insert(out.end(), Sample{s->name});
            for (const Site::Slot &slot : s->slots) {
                it->cycles += slot.cycles.load(std::memory_order_relaxed);
                it->hits += slot.hits.load(std::memory_order_relaxed);
            }
        }
    }
    std::erase_if(out, [](const Sample &o) { return o.hits == 0; });
    std::sort(out.begin(), out.end(),
              [](const Sample &a, const Sample &b) {
                  return a.cycles > b.cycles;
              });
    return out;
}

/**
 * RAII cycle accumulator. Nested scopes double-count by design
 * (each site reports inclusive time, like a flat gprof profile).
 *
 * A scope records @p calls hits, so one scope can time a run of n
 * operations and still count each of them; setCalls() changes the
 * count before the scope closes, for runs whose length is known only
 * at the end.
 */
class Scope
{
  public:
    explicit Scope(Site &site, std::uint64_t calls = 1) : calls_(calls)
    {
        if (!enabled()) [[likely]]
            return;
        site_ = &site;
        start_ = detail::now();
    }

    ~Scope()
    {
        if (!site_)
            return;
        Site::Slot &slot = site_->slots[detail::slotId()];
        slot.cycles.fetch_add(detail::now() - start_,
                              std::memory_order_relaxed);
        slot.hits.fetch_add(calls_, std::memory_order_relaxed);
    }

    /** Record @p calls hits when the scope closes. */
    void setCalls(std::uint64_t calls) { calls_ = calls; }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Site *site_ = nullptr;
    std::uint64_t start_ = 0;
    std::uint64_t calls_;
};

} // namespace hh::sim::prof

#define HH_PROF_CONCAT2(a, b) a##b
#define HH_PROF_CONCAT(a, b) HH_PROF_CONCAT2(a, b)

/**
 * Accumulate cycles spent in the enclosing scope under @p name, as
 * one call. One untaken branch when profiling is off.
 */
#define HH_PROF_SCOPE(name)                                         \
    HH_PROF_SCOPE_N(HH_PROF_CONCAT(hh_prof_scope_, __LINE__), name, 1)

/**
 * Declare the scope @p var, which accumulates the cycles spent in
 * the enclosing scope under @p name as @p calls calls (see
 * Scope::setCalls).
 */
#define HH_PROF_SCOPE_N(var, name, calls)                           \
    static ::hh::sim::prof::Site HH_PROF_CONCAT(                    \
        hh_prof_site_, __LINE__){name};                             \
    ::hh::sim::prof::Scope var(HH_PROF_CONCAT(hh_prof_site_, __LINE__), \
                               calls)

#endif // HH_SIM_PROF_H
