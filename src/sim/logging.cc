#include "sim/logging.hh"

#include <cstdio>

namespace netsparse {

namespace {
bool gVerbose = true;
} // namespace

void
setVerbose(bool verbose)
{
    gVerbose = verbose;
}

bool
verbose()
{
    return gVerbose;
}

namespace detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::fflush(stderr);
    // Throw instead of abort() so tests can assert on panics; uncaught,
    // the exception still terminates the process with a diagnostic.
    throw PanicError("panic: " + msg);
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::fflush(stderr);
    throw FatalError("fatal: " + msg);
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    if (gVerbose)
        std::fprintf(stdout, "info: %s\n", msg.c_str());
}

} // namespace detail
} // namespace netsparse
