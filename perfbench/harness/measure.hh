/**
 * @file
 * Host-side measurement helpers of the benchmark harness: wall and
 * process-CPU clocks, medians, peak RSS, and the in-memory span
 * recorder behind the traced run.
 *
 * Spans are recorded from the harness's own code around each call into
 * a library layer (generate, partition, build, run, suopt, compose,
 * one per microbench). They stay in memory until the run ends; the
 * product's own TraceWriter/SpanSink are never enabled.
 */

#ifndef PERFBENCH_MEASURE_HH
#define PERFBENCH_MEASURE_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <sys/resource.h>

namespace perfbench {

/** Monotonic wall clock in seconds. */
inline double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPU seconds of the whole process (every thread). */
inline double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/** Median of @p v (0 when empty); the mean of the middle pair if even. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Peak resident set size of this process, in MB. */
inline double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** In-memory span recorder; a disabled recorder records nothing. */
class SpanRecorder
{
  public:
    struct Span
    {
        std::uint32_t id = 0;
        std::uint32_t parent = 0; // 0 = root
        std::string name;
        double start = 0, end = 0; // wall seconds
    };

    /** RAII span: opens on construction, closes on destruction. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, std::string name) : rec_(rec)
        {
            if (rec_.enabled_)
                index_ = rec_.open(std::move(name));
        }
        ~Scope()
        {
            if (rec_.enabled_)
                rec_.close(index_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder &rec_;
        std::size_t index_ = 0;
    };

    void enable(bool on) { enabled_ = on; }

    /**
     * Self time per span name, in seconds: each span's duration minus
     * the time its direct children cover, summed over same-named spans.
     */
    std::map<std::string, double>
    selfTimes() const
    {
        std::vector<double> child(spans_.size() + 1, 0.0);
        for (const Span &s : spans_)
            if (s.parent)
                child[s.parent] += s.end - s.start;
        std::map<std::string, double> out;
        for (const Span &s : spans_)
            out[s.name] += (s.end - s.start) - child[s.id];
        return out;
    }

    /** Write every span as JSON (netsparse-perfbench-spans-v1). */
    bool
    writeJson(const std::string &path) const
    {
        std::ofstream os(path);
        os << "{\"schema\": \"netsparse-perfbench-spans-v1\", "
              "\"spans\": [";
        const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << (i ? ",\n" : "\n") << "{\"id\": " << s.id
               << ", \"parent\": " << s.parent << ", \"name\": \""
               << s.name << "\", \"start_ns\": "
               << static_cast<std::int64_t>((s.start - t0) * 1e9)
               << ", \"end_ns\": "
               << static_cast<std::int64_t>((s.end - t0) * 1e9) << "}";
        }
        os << "\n]}\n";
        return static_cast<bool>(os);
    }

  private:
    std::size_t
    open(std::string name)
    {
        Span s;
        s.id = static_cast<std::uint32_t>(spans_.size() + 1);
        s.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
        s.name = std::move(name);
        s.start = wallNow();
        spans_.push_back(std::move(s));
        stack_.push_back(spans_.size() - 1);
        return spans_.size() - 1;
    }

    void
    close(std::size_t index)
    {
        spans_[index].end = wallNow();
        stack_.pop_back();
    }

    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
};

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HH
