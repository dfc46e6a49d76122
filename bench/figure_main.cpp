/**
 * @file
 * The `main()` of every paper-figure binary. CMake compiles this file
 * once per entry of paperFigures() (paper_figures.h) with HH_FIGURE
 * set to the binary's name; the binary runs that entry's jobs through
 * a JobScheduler and prints the figure.
 *
 * Usage:  <binary> [--trace out.json] [--metrics out.csv]
 *   Scale comes from HH_REQUESTS / HH_SERVERS / HH_SAMPLING / HH_SEED
 *   and workers from HH_THREADS. `bench/repro_all` prints the same
 *   figures from one scheduler run.
 */

#include "paper_figures.h"

int
main(int argc, char **argv)
{
    using namespace hh::bench;
    const ObsOptions obs = parseObsArgs(argc, argv);
    ObsSink sink(obs);
    hh::exp::JobScheduler sched;
    const FigureRun fig =
        paperFigure(HH_FIGURE).submit(sched, BenchScale(), obs);
    sched.run();
    fig.print(sched, sink);
    return sink.finish();
}
