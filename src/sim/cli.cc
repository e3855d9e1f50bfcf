#include "sim/cli.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "sim/span.hh"
#include "sim/stats_export.hh"
#include "sim/telemetry.hh"
#include "sim/trace.hh"

namespace netsparse {

namespace {

template <typename Doc>
bool
openDocument(const std::string &path)
{
    return Doc::instance().setOutputPath(path);
}

/** Each output: its flag, bench environment variable, path and sink. */
struct Output
{
    const char *flag;
    const char *env;
    std::string RunOutputs::*path;
    bool (*open)(const std::string &path);
};

const Output kOutputs[] = {
    {"--trace-out", "NETSPARSE_TRACE_OUT", &RunOutputs::trace,
     [](const std::string &p) { return TraceWriter::instance().open(p); }},
    {"--stats-json", "NETSPARSE_STATS_JSON", &RunOutputs::stats,
     openDocument<StatsExport>},
    {"--telemetry-out", "NETSPARSE_TELEMETRY_OUT", &RunOutputs::telemetry,
     openDocument<TelemetrySink>},
    {"--spans-out", "NETSPARSE_SPANS_OUT", &RunOutputs::spans,
     openDocument<SpanSink>},
};

/** Exit 2 naming the flag or variable @p name and the bad @p text. */
[[noreturn]] void
badValue(const char *name, const char *text, const std::string &expected)
{
    std::fprintf(stderr, "%s: expected %s, got '%s'\n", name,
                 expected.c_str(), text);
    std::exit(2);
}

} // namespace

std::uint64_t
parseUint(const char *name, const char *text, std::uint64_t min,
          std::uint64_t max)
{
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 0);
    if (errno != 0 || end == text || *end != '\0' ||
        std::strchr(text, '-') != nullptr || v < min || v > max)
        badValue(name, text,
                 min == 0 ? "a non-negative integer"
                          : "an integer >= " + std::to_string(min));
    return v;
}

double
parseDouble(const char *name, const char *text, bool allowZero)
{
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(text, &end);
    if (errno != 0 || end == text || *end != '\0' || !std::isfinite(v) ||
        v < 0 || (v == 0 && !allowZero))
        badValue(name, text,
                 allowZero ? "a non-negative number" : "a positive number");
    return v;
}

RunOutputs
RunOutputs::fromBenchArgs(int argc, char **argv)
{
    RunOutputs out;
    for (const Output &o : kOutputs)
        if (const char *value = std::getenv(o.env))
            out.*o.path = value;
    for (int i = 1; i + 1 < argc; ++i)
        if (std::string *path = out.pathFor(argv[i]))
            *path = argv[++i];
    return out;
}

std::string *
RunOutputs::pathFor(const std::string &flag)
{
    for (const Output &o : kOutputs)
        if (flag == o.flag)
            return &(this->*o.path);
    return nullptr;
}

void
RunOutputs::open()
{
    for (const Output &o : kOutputs) {
        const std::string &path = this->*o.path;
        if (path.empty())
            continue;
        std::error_code ec;
        const bool fresh = !std::filesystem::exists(path, ec);
        if (!o.open(path)) {
            std::fprintf(stderr, "cannot open %s output %s\n", o.flag,
                         path.c_str());
            discard();
            std::exit(1);
        }
        if (fresh)
            created_.push_back(path);
    }
}

void
RunOutputs::finish()
{
    TraceWriter::instance().close();
    StatsExport::instance().writeFile();
    TelemetrySink::instance().writeFile();
    SpanSink::instance().writeFile();
}

void
RunOutputs::discard()
{
    TraceWriter::instance().reset();
    StatsExport::instance().reset();
    TelemetrySink::instance().reset();
    SpanSink::instance().reset();
    for (const std::string &path : created_)
        std::remove(path.c_str());
    created_.clear();
}

} // namespace netsparse
