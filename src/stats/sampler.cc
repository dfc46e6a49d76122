#include "stats/sampler.h"

#include <cstdio>
#include <sstream>


namespace hh::stats {

MetricSampler::MetricSampler(hh::sim::Simulator &sim,
                             const MetricRegistry &reg,
                             hh::sim::Cycles period)
    : sim_(sim), reg_(reg), period_(period),
      task_(sim, hh::snap::SnapTag::kSamplerTick, [this] {
          sampleRow();
          return period_;
      })
{}

void
MetricSampler::sampleRow()
{
    SampleRow row;
    row.t = sim_.now();
    // Read exactly the columns frozen at start(): metrics registered
    // after the sampler started would otherwise shift every later
    // row's values against the header.
    row.values.reserve(columns_.size());
    for (const auto &name : columns_)
        row.values.push_back(reg_.value(name));
    rows_.push_back(std::move(row));
}

void
MetricSampler::start()
{
    if (task_.running())
        return;
    columns_ = reg_.names();
    sampleRow();
    task_.start(period_);
}

void
MetricSampler::stop()
{
    if (!task_.stop())
        return;
    // Final partial-interval row — unless a periodic tick already
    // sampled this exact time, which would duplicate the row.
    if (rows_.empty() || rows_.back().t != sim_.now())
        sampleRow();
}

SampledSeries
MetricSampler::takeSeries()
{
    SampledSeries s;
    s.columns = std::move(columns_);
    s.rows = std::move(rows_);
    columns_.clear();
    rows_.clear();
    return s;
}

std::string
metricsCsv(const std::vector<SampledSeries> &series)
{
    std::ostringstream os;
    os << "server,t_ms";
    if (!series.empty()) {
        for (const auto &c : series.front().columns)
            os << ',' << c;
    }
    os << '\n';
    char buf[64];
    for (const auto &s : series) {
        for (const auto &row : s.rows) {
            std::snprintf(buf, sizeof buf, "%.6f",
                          hh::sim::cyclesToMs(row.t));
            os << s.label << ',' << buf;
            for (const double v : row.values) {
                std::snprintf(buf, sizeof buf, "%.9g", v);
                os << ',' << buf;
            }
            os << '\n';
        }
    }
    return os.str();
}

bool
writeMetricsCsv(const std::string &path,
                const std::vector<SampledSeries> &series)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string body = metricsCsv(series);
    const bool ok =
        std::fwrite(body.data(), 1, body.size(), f) == body.size();
    std::fclose(f);
    return ok;
}

} // namespace hh::stats
