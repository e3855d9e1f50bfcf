/**
 * @file
 * Command-line parsing shared by netsparse_sim and the figure/table
 * benches: checked numeric values, and the four observability output
 * flags --trace-out (TraceWriter), --stats-json (StatsExport),
 * --telemetry-out (TelemetrySink) and --spans-out (SpanSink), which the
 * benches also read from NETSPARSE_TRACE_OUT / _STATS_JSON /
 * _TELEMETRY_OUT / _SPANS_OUT.
 */

#ifndef NETSPARSE_SIM_CLI_HH
#define NETSPARSE_SIM_CLI_HH

#include <cstdint>
#include <string>
#include <vector>

namespace netsparse {

/** @p text as a plain integer in [@p min, @p max] (decimal, 0x hex or
 *  0 octal); anything else exits 2 with "<name>: expected a non-negative
 *  integer, got '<text>'" (or "an integer >= <min>"). */
std::uint64_t parseUint(const char *name, const char *text,
                        std::uint64_t min = 0,
                        std::uint64_t max = UINT64_MAX);

/** @p text as a finite number > 0, or >= 0 with @p allowZero; anything
 *  else exits 2 with "<name>: expected a positive number, got ...". */
double parseDouble(const char *name, const char *text,
                   bool allowZero = false);

/** The four output flags: parse, open before any work, then finish. */
class RunOutputs
{
  public:
    /** Output paths; empty means off. */
    std::string trace, stats, telemetry, spans;

    /** The bench form: the environment variables, overridden by any of
     *  the four flags in @p argv (other arguments are ignored). */
    static RunOutputs fromBenchArgs(int argc, char **argv);

    /** The path behind output flag @p flag ("--stats-json"), or null
     *  when @p flag is not one of the four. */
    std::string *pathFor(const std::string &flag);

    /** Probe-open every requested output on the calling thread's sinks;
     *  a path that cannot be created exits 1 with "cannot open --<flag>
     *  output <path>" after a discard(). */
    void open();

    /** Write every output now; otherwise they are written at exit. */
    void finish();

    /** Drop every output unwritten (rejected input): files open()
     *  created are removed, files that existed before are untouched. */
    void discard();

  private:
    std::vector<std::string> created_;
};

} // namespace netsparse

#endif // NETSPARSE_SIM_CLI_HH
