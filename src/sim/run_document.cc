#include "sim/run_document.hh"

#include <cstdio>
#include <fstream>

#include "sim/logging.hh"

namespace netsparse {

void
writeJsonNumber(std::ostream &os, double v)
{
    if (v != v || v > 1e308 || v < -1e308) {
        os << "null";
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace detail {

bool
probeOutput(const std::string &path)
{
    // Append mode: creates the file, keeps any content.
    return static_cast<bool>(std::ofstream(path, std::ios::app));
}

bool
writeOutput(const std::string &path, const std::string &text)
{
    std::ofstream os(path);
    if (os << text)
        return true;
    ns_warn("cannot write output ", path);
    return false;
}

} // namespace detail

} // namespace netsparse
