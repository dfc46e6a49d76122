#include "stats/registry.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "sim/log.h"

namespace hh::stats {

void
MetricRegistry::registerGauge(const std::string &name, Getter get)
{
    if (name.empty())
        hh::sim::panic("MetricRegistry: empty metric name");
    if (!metrics_.emplace(name, std::move(get)).second)
        hh::sim::panic("MetricRegistry: duplicate metric '", name, "'");
}

void
MetricRegistry::registerCounter(const std::string &name, Counter &c)
{
    registerGauge(name, [&c] { return static_cast<double>(c.value()); });
}

void
MetricRegistry::registerCounter(const std::string &name,
                                const std::uint64_t &v)
{
    registerGauge(name, [&v] { return static_cast<double>(v); });
}

void
MetricRegistry::registerLatency(const std::string &name,
                                LatencyRecorder &r)
{
    registerGauge(name + ".count",
                  [&r] { return static_cast<double>(r.count()); });
    registerGauge(name + ".mean", [&r] { return r.mean(); });
}

void
MetricRegistry::registerUtilization(const std::string &name,
                                    UtilizationTracker &u, NowFn now)
{
    registerGauge(name + ".util",
                  [&u, now] { return u.utilization(now()); });
    registerGauge(name + ".cycles", [&u, now] {
        return static_cast<double>(u.busyCycles(now()));
    });
}

std::vector<MetricRegistry::Sample>
MetricRegistry::snapshot() const
{
    std::vector<Sample> out;
    out.reserve(metrics_.size());
    for (const auto &[name, get] : metrics_)
        out.push_back(Sample{name, get()});
    return out;
}

double
MetricRegistry::value(const std::string &name) const
{
    const auto it = metrics_.find(name);
    if (it == metrics_.end())
        hh::sim::panic("MetricRegistry: unknown metric '", name, "'");
    return it->second();
}

std::vector<std::string>
MetricRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(metrics_.size());
    for (const auto &[name, get] : metrics_)
        out.push_back(name);
    return out;
}

std::string
MetricRegistry::json(const std::string &prefix) const
{
    std::ostringstream os;
    os << "{";
    bool first = true;
    char buf[64];
    for (const auto &[name, get] : metrics_) {
        if (!first)
            os << ",";
        first = false;
        const double v = get();
        // JSON has no inf/nan literals.
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(v) ? v : 0.0);
        os << "\n  \"";
        if (!prefix.empty())
            os << prefix << '.';
        os << name << "\": " << buf;
    }
    os << "\n}\n";
    return os.str();
}

} // namespace hh::stats
