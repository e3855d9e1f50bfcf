/**
 * @file
 * gem5-style status and error reporting helpers.
 *
 * panic()  - an internal simulator invariant was violated (aborts).
 * fatal()  - the user asked for something impossible (exits cleanly).
 * warn()   - something suspicious but survivable happened.
 * inform() - plain status output.
 */

#ifndef NETSPARSE_SIM_LOGGING_HH
#define NETSPARSE_SIM_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace netsparse {

/** What ns_fatal throws, once it has printed the message to stderr. */
struct FatalError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** What ns_panic throws, once it has printed the message to stderr. */
struct PanicError : std::logic_error
{
    using std::logic_error::logic_error;
};

namespace detail {

/** Build a message string from a stream of arguments. */
template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/** Global verbosity switch: when false, inform() output is suppressed. */
void setVerbose(bool verbose);
bool verbose();

} // namespace netsparse

#define ns_panic(...)                                                       \
    ::netsparse::detail::panicImpl(__FILE__, __LINE__,                      \
                                   ::netsparse::detail::format(__VA_ARGS__))

#define ns_fatal(...)                                                       \
    ::netsparse::detail::fatalImpl(__FILE__, __LINE__,                      \
                                   ::netsparse::detail::format(__VA_ARGS__))

#define ns_warn(...)                                                        \
    ::netsparse::detail::warnImpl(::netsparse::detail::format(__VA_ARGS__))

#define ns_inform(...)                                                      \
    ::netsparse::detail::informImpl(                                        \
        ::netsparse::detail::format(__VA_ARGS__))

/** Check an invariant; panic with a message when it does not hold. */
#define ns_assert(cond, ...)                                                \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ns_panic("assertion failed: ", #cond, ": ",                     \
                     ::netsparse::detail::format(__VA_ARGS__));             \
        }                                                                   \
    } while (0)

#endif // NETSPARSE_SIM_LOGGING_HH
