/**
 * @file
 * Parallel execution of independent sweep points.
 *
 * The bench harness evaluates a grid of (matrix, parameter) points, each
 * an independent simulation. SweepExecutor runs those points across a
 * small thread pool while preserving the observable behavior of a
 * sequential sweep:
 *
 *  - each point binds its own sinks (sim/run_document.hh): a
 *    StatsExport, TelemetrySink and SpanSink that collect whatever the
 *    calling thread's sinks collect, and a DerivedTrace, so concurrent
 *    simulations never share a sink;
 *  - after the join, one loop absorb()s each point's runs into the
 *    ambient documents in point-index order, making the emitted stats,
 *    telemetry and spans JSON byte-identical to a sequential run;
 *  - per-point traces land next to the ambient trace path as
 *    "<path>.point<i>.json" (event traces cannot be merged);
 *  - the first exception (by point index) is rethrown on the calling
 *    thread after all workers join.
 *
 * jobs <= 1 (the default; benches read NETSPARSE_BENCH_JOBS) runs
 * points inline on the calling thread with the ambient sinks untouched.
 */

#ifndef NETSPARSE_SIM_SWEEP_HH
#define NETSPARSE_SIM_SWEEP_HH

#include <cstddef>
#include <functional>

namespace netsparse {

class SweepExecutor
{
  public:
    /** A pool of @p jobs workers (values < 1 behave like 1). */
    explicit SweepExecutor(unsigned jobs) : jobs_(jobs < 1 ? 1 : jobs) {}

    unsigned jobs() const { return jobs_; }

    /**
     * Evaluate @p point for every index in [0, n). Points must be
     * independent: results should go into pre-sized per-index storage,
     * not shared accumulators. Blocks until all points finish.
     */
    void run(std::size_t n, const std::function<void(std::size_t)> &point);

  private:
    unsigned jobs_;
};

} // namespace netsparse

#endif // NETSPARSE_SIM_SWEEP_HH
