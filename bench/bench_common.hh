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

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "sim/span.hh"
#include "sim/stats_export.hh"
#include "sim/sweep.hh"
#include "sim/telemetry.hh"
#include "sim/trace.hh"
#include "sparse/generators.hh"
#include "sparse/partition.hh"

namespace netsparse::bench {

/** Exit 2 with a message naming environment variable @p name. */
[[noreturn]] inline void
badEnv(const char *name, const char *value, const std::string &expected)
{
    std::fprintf(stderr, "%s: expected %s, got '%s'\n", name,
                 expected.c_str(), value);
    std::exit(2);
}

/**
 * Integer environment variable @p name, or @p fallback when it is unset
 * or empty. Anything but a plain integer >= @p min exits 2 naming the
 * variable: a silent fallback would start a full-scale sweep.
 */
inline std::uint32_t
envCount(const char *name, std::uint32_t min, std::uint32_t fallback)
{
    const char *env = std::getenv(name);
    if (!env || !*env)
        return fallback;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(env, &end, 10);
    if (errno != 0 || end == env || *end != '\0' ||
        std::strchr(env, '-') != nullptr || v < min || v > UINT32_MAX)
        badEnv(name, env, "an integer >= " + std::to_string(min));
    return static_cast<std::uint32_t>(v);
}

/** Scale factor for benchmark matrices (env NETSPARSE_BENCH_SCALE). */
inline double
benchScale(double fallback = 1.0)
{
    const char *env = std::getenv("NETSPARSE_BENCH_SCALE");
    if (!env || !*env)
        return fallback;
    char *end = nullptr;
    double v = std::strtod(env, &end);
    if (end == env || *end != '\0' || !std::isfinite(v) || v <= 0)
        badEnv("NETSPARSE_BENCH_SCALE", env, "a positive number");
    return v;
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
 * Wire the shared observability flags into a bench binary: every bench
 * accepts `--trace-out FILE` (Chrome-trace/Perfetto event trace),
 * `--stats-json FILE` (JSON snapshot of every cluster run's stats
 * registry, one "runs[]" entry per runGather) and `--telemetry-out
 * FILE` (interval-telemetry timeline) and `--spans-out FILE` (per-PR
 * causal span trees at the default 1/64 sampling). The environment
 * variables NETSPARSE_TRACE_OUT / NETSPARSE_STATS_JSON /
 * NETSPARSE_TELEMETRY_OUT / NETSPARSE_SPANS_OUT are honored as
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
    const char *trace = std::getenv("NETSPARSE_TRACE_OUT");
    const char *stats = std::getenv("NETSPARSE_STATS_JSON");
    const char *telemetry = std::getenv("NETSPARSE_TELEMETRY_OUT");
    const char *spans = std::getenv("NETSPARSE_SPANS_OUT");
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == "--trace-out")
            trace = argv[i + 1];
        else if (std::string(argv[i]) == "--stats-json")
            stats = argv[i + 1];
        else if (std::string(argv[i]) == "--telemetry-out")
            telemetry = argv[i + 1];
        else if (std::string(argv[i]) == "--spans-out")
            spans = argv[i + 1];
    }
    // Parsed here only to reject malformed values before any work.
    benchScale();
    benchNodes();
    benchJobs();

    auto fail = [](const char *flag, const char *path) {
        std::fprintf(stderr, "cannot open --%s output %s\n", flag, path);
        std::exit(1);
    };
    if (trace && *trace && !TraceWriter::instance().open(trace))
        fail("trace-out", trace);
    if (stats && *stats && !StatsExport::instance().setOutputPath(stats))
        fail("stats-json", stats);
    if (telemetry && *telemetry &&
        !TelemetrySink::instance().setOutputPath(telemetry))
        fail("telemetry-out", telemetry);
    if (spans && *spans && !SpanSink::instance().setOutputPath(spans))
        fail("spans-out", spans);
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
