/**
 * @file
 * Shared helpers for the table/figure benchmark harness.
 *
 * Every bench binary reproduces one table or figure of the paper. The
 * matrices are synthetic structural analogues (see DESIGN.md), scaled by
 * NETSPARSE_BENCH_SCALE (default 1.0; the environment variable lets CI
 * trade fidelity for speed). Absolute numbers differ from the paper -
 * the matrices are ~100x smaller - but each bench prints the same rows
 * or series so the qualitative shape can be compared directly.
 */

#ifndef NETSPARSE_BENCH_COMMON_HH
#define NETSPARSE_BENCH_COMMON_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/cli.hh"
#include "sim/sweep.hh"
#include "sparse/generators.hh"
#include "sparse/partition.hh"

namespace netsparse::bench {

/**
 * Integer environment variable @p name, or @p fallback when it is unset
 * or empty. Anything but a plain integer >= @p min exits 2 naming the
 * variable: a silent fallback would start a full-scale sweep.
 */
inline std::uint32_t
envCount(const char *name, std::uint32_t min, std::uint32_t fallback)
{
    const char *env = std::getenv(name);
    return env && *env ? static_cast<std::uint32_t>(
                             parseUint(name, env, min, UINT32_MAX))
                       : fallback;
}

/** Scale factor for benchmark matrices (env NETSPARSE_BENCH_SCALE). */
inline double
benchScale(double fallback = 1.0)
{
    const char *env = std::getenv("NETSPARSE_BENCH_SCALE");
    return env && *env ? parseDouble("NETSPARSE_BENCH_SCALE", env) : fallback;
}

/** Number of cluster nodes (env NETSPARSE_BENCH_NODES, default 128). */
inline std::uint32_t
benchNodes(std::uint32_t fallback = 128)
{
    return envCount("NETSPARSE_BENCH_NODES", 2, fallback);
}

/** Sweep worker count (env NETSPARSE_BENCH_JOBS, default 1). */
inline unsigned
benchJobs()
{
    return envCount("NETSPARSE_BENCH_JOBS", 1, 1);
}

/**
 * Wire the shared observability flags into a bench binary (see
 * sim/cli.hh): `--trace-out`, `--stats-json`, `--telemetry-out`
 * and `--spans-out`, with the NETSPARSE_*_OUT environment variables as
 * fallbacks so CI can collect artifacts without touching command
 * lines. Outputs are finalized at process exit. See
 * docs/observability.md for the schemas.
 *
 * Everything is checked before any work starts: an output path that
 * cannot be created exits 1 ("cannot open --<flag> output"), and a
 * malformed NETSPARSE_BENCH_SCALE / _NODES / _JOBS exits 2.
 */
inline void
initObservability(int argc, char **argv)
{
    RunOutputs outputs = RunOutputs::fromBenchArgs(argc, argv);
    // Parsed here only to reject malformed values before any work.
    benchScale();
    benchNodes();
    benchJobs();
    outputs.open();
}

/**
 * Evaluate @p n independent sweep points with @p point(i), possibly in
 * parallel (NETSPARSE_BENCH_JOBS). Points must write their results into
 * pre-sized per-index storage and print nothing; the caller prints the
 * table afterwards, so output rows and stats runs appear in the same
 * order regardless of the worker count. See docs/performance.md.
 */
template <typename Fn>
inline void
runSweep(std::size_t n, Fn &&point)
{
    SweepExecutor exec(benchJobs());
    exec.run(n, std::function<void(std::size_t)>(std::forward<Fn>(point)));
}

/** Print a banner naming the experiment. */
inline void
banner(const char *experiment, const char *paper_ref)
{
    std::printf("==============================================================\n");
    std::printf("%s\n(reproduces %s of the NetSparse paper)\n", experiment,
                paper_ref);
    std::printf("==============================================================\n");
}

} // namespace netsparse::bench

#endif // NETSPARSE_BENCH_COMMON_HH
