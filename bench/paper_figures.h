/**
 * @file
 * The paper's evaluation as one table of figures.
 *
 * Each entry regenerates one table or figure of the paper, in paper
 * order: Table 1, Figs 2-7 and 11-17, §6.7, §6.8, Figs 18-19, and the
 * §4.1.5/§6.3 extension study. `submit` registers the entry's labelled jobs with a
 * JobScheduler for a scale and returns a printer over their results.
 * `bench/figure_main.cpp` runs one entry per binary; `repro_all` runs
 * every entry from one scheduler, so jobs that figures share (fig11's
 * five BFS runs are fig16's and §6.7's) simulate once. Only the
 * Figure 11 / 14 / 17 harnesses (figures.h) yield FidelityGate
 * measurements.
 */

#ifndef HH_BENCH_PAPER_FIGURES_H
#define HH_BENCH_PAPER_FIGURES_H

#include <functional>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "exp/fidelity.h"
#include "exp/scheduler.h"

namespace hh::bench {

/** A submitted figure: prints, and maybe measures, its jobs. */
struct FigureRun
{
    /** Stdout of the figure; observability payloads into the sink. */
    std::function<void(const hh::exp::JobScheduler &, ObsSink &)> print;
    /** FidelityGate measurements; empty when the figure has none. */
    std::function<void(const hh::exp::JobScheduler &,
                       hh::exp::MeasurementSet &)>
        measure = nullptr;
};

/** One table or figure of the paper. */
struct PaperFigure
{
    const char *binary;  //!< Bench binary name, e.g. fig11_tail_latency.
    bool measured;       //!< Its run carries measure().
    FigureRun (*submit)(hh::exp::JobScheduler &, const BenchScale &,
                        const ObsOptions &);
};

/** Every entry, in paper order. */
const std::vector<PaperFigure> &paperFigures();

/** The entry named @p binary; fatal when there is none. */
const PaperFigure &paperFigure(std::string_view binary);

} // namespace hh::bench

#endif // HH_BENCH_PAPER_FIGURES_H
