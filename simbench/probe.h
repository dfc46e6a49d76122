/**
 * @file
 * Measurement plumbing of the simulator benchmark: wall-clock spans
 * recorded around calls into the simulator's layers, readings of the
 * simulator's own `HH_PROF_SCOPE` cycle counters, and host facts
 * (CPU model, usable cores, peak RSS, a fixed calibration loop).
 *
 * Nothing here reaches inside the simulator: spans wrap public calls
 * from the benchmark's side, and the profile sites are the ones the
 * simulator already exports through `hh::sim::prof::snapshot()`.
 */

#ifndef HH_SIMBENCH_PROBE_H
#define HH_SIMBENCH_PROBE_H

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/prof.h"

namespace hh::simbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median of @p v (0 when empty). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile @p p (0..100) of @p v (0 when empty). */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double rank = p / 100.0 * static_cast<double>(v.size());
    std::size_t idx = static_cast<std::size_t>(rank);
    if (static_cast<double>(idx) < rank)
        ++idx;
    return v[std::min(v.size() - 1, idx > 0 ? idx - 1 : 0)];
}

/**
 * In-memory span log of one benchmark invocation. A span is a named
 * interval around one call into a simulator layer, with the span
 * that caused it as parent; every span of the invocation carries the
 * same trace id. Safe to record from pool threads.
 */
class SpanLog
{
  public:
    static constexpr std::int64_t kRoot = -1;

    explicit SpanLog(std::uint64_t traceId)
        : trace_id_(traceId), origin_(Clock::now())
    {
    }

    /** Open a span; @return its id, to close it and parent others. */
    std::int64_t
    open(const std::string &name, std::int64_t parent = kRoot)
    {
        const double start = micros();
        const std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back({name, parent, threadIndex(), start, -1});
        return static_cast<std::int64_t>(spans_.size() - 1);
    }

    void
    close(std::int64_t id)
    {
        const double end = micros();
        const std::lock_guard<std::mutex> lock(mu_);
        spans_[static_cast<std::size_t>(id)].endUs = end;
    }

    /** Chrome trace_event JSON (one complete "X" event per span). */
    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        const std::lock_guard<std::mutex> lock(mu_);
        out << "{\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            char buf[160];
            std::snprintf(buf, sizeof buf,
                          "\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                          "\"pid\":%llu,\"tid\":%u,",
                          s.startUs, std::max(0.0, s.endUs - s.startUs),
                          static_cast<unsigned long long>(trace_id_),
                          s.tid);
            out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
                << "\"," << buf << "\"args\":{\"id\":" << i
                << ",\"parent\":" << s.parent << "}}";
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

  private:
    struct Span
    {
        std::string name;
        std::int64_t parent;
        unsigned tid;
        double startUs;
        double endUs;
    };

    double
    micros() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
            .count();
    }

    /** Small dense thread index (Chrome tid); caller holds mu_. */
    unsigned
    threadIndex()
    {
        const auto me = std::this_thread::get_id();
        const auto it = tids_.find(me);
        if (it != tids_.end())
            return it->second;
        const unsigned id = static_cast<unsigned>(tids_.size());
        tids_.emplace(me, id);
        return id;
    }

    std::uint64_t trace_id_;
    Clock::time_point origin_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::map<std::thread::id, unsigned> tids_;
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const std::string &name,
               std::int64_t parent = SpanLog::kRoot)
        : log_(log), id_(log.open(name, parent))
    {
    }
    ~ScopedSpan() { log_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::int64_t id() const { return id_; }

  private:
    SpanLog &log_;
    std::int64_t id_;
};

/** Per-site totals of the simulator's profile counters. */
struct ProfSite
{
    std::uint64_t cycles = 0;
    std::uint64_t hits = 0;
};
using ProfTotals = std::map<std::string, ProfSite>;

inline ProfTotals
profTotals()
{
    ProfTotals t;
    for (const auto &s : hh::sim::prof::snapshot())
        t[s.name] = {s.cycles, s.hits};
    return t;
}

inline std::uint64_t
profCycles(const std::string &site)
{
    for (const auto &s : hh::sim::prof::snapshot()) {
        if (s.name == site)
            return s.cycles;
    }
    return 0;
}

/**
 * Converts profile-counter ticks to nanoseconds by pairing the tick
 * source with steady_clock over a measured interval.
 */
class TickCalibration
{
  public:
    void
    begin()
    {
        t0_ = Clock::now();
        c0_ = hh::sim::prof::detail::now();
    }

    void
    end()
    {
        const double ns = std::chrono::duration<double, std::nano>(
                              Clock::now() - t0_)
                              .count();
        const double ticks =
            static_cast<double>(hh::sim::prof::detail::now() - c0_);
        ticks_per_ns_ = ns > 0 && ticks > 0 ? ticks / ns : 1.0;
    }

    double ns(std::uint64_t ticks) const
    {
        return static_cast<double>(ticks) / ticks_per_ns_;
    }

  private:
    Clock::time_point t0_;
    std::uint64_t c0_ = 0;
    double ticks_per_ns_ = 1.0;
};

/** Cores this process may run on. */
inline unsigned
usableCores()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    return std::max(1u, std::thread::hardware_concurrency());
}

inline std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(" \t",
                                                          colon + 1));
        }
    }
    return "unknown";
}

/** Peak resident set of this process so far, in MiB. */
inline double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/**
 * CPU seconds consumed by all threads of this process so far. Unlike
 * wall time it excludes time the hypervisor steals from the vCPUs,
 * which on a shared VM can stretch wall time by 2x in bursts.
 */
inline double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/**
 * Host speed reference: the median time of a fixed 2^24-step
 * xorshift loop, so per-layer nanoseconds from different hosts can be
 * normalized.
 */
inline double
calibrationNs()
{
    std::vector<double> ns;
    volatile std::uint64_t sink = 0;
    for (int rep = 0; rep < 5; ++rep) {
        std::uint64_t x = 0x9E3779B97F4A7C15ULL + sink;
        const auto t0 = Clock::now();
        for (std::uint32_t i = 0; i < (1u << 24); ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        ns.push_back(std::chrono::duration<double, std::nano>(
                         Clock::now() - t0)
                         .count());
        sink = x;
    }
    return median(ns);
}

} // namespace hh::simbench

#endif // HH_SIMBENCH_PROBE_H
