/**
 * @file
 * The run documents behind --stats-json, --telemetry-out and
 * --spans-out, and the thread binding every observability sink shares.
 *
 * A RunDocument<Run> collects one Run per simulated gather and writes
 * them, by writeFile() or at process exit, as one JSON document
 *
 *   {"schema":"<RunFormat<Run>::schema>",
 *    "runs":[{"run":0,"label":"gather0"<RunFormat<Run>::write>}, ...]}
 *
 * StatsExport, TelemetrySink and SpanSink are the three kinds; each
 * supplies only its Run type and RunFormat<Run>.
 *
 * instance() is the calling thread's *bound* sink: global() unless a
 * Bind is alive, as on parallel sweep workers (sim/sweep.hh), which
 * absorb() their per-point runs back in sweep order so the JSON is
 * identical to a sequential run. The binding starts out at global(),
 * so instance() is one thread-local load; TraceWriter shares it.
 */

#ifndef NETSPARSE_SIM_RUN_DOCUMENT_HH
#define NETSPARSE_SIM_RUN_DOCUMENT_HH

#include <cstdlib>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

namespace netsparse {

/** Escape a string for inclusion in a JSON document. */
std::string jsonEscape(const std::string &s);

/** Print a double the way JSON wants (no inf/nan, full precision). */
void writeJsonNumber(std::ostream &os, double v);

namespace detail {

/** The process-wide sink of type T (see ThreadBound::global()). */
template <typename T>
inline T boundGlobal{};

/**
 * Prove @p path writable without changing it: creates the file when
 * missing, keeps any existing content. False when it cannot be opened,
 * e.g. its directory does not exist.
 */
bool probeOutput(const std::string &path);

/** Replace @p path's content with @p text; false (warned) on failure. */
bool writeOutput(const std::string &path, const std::string &text);

} // namespace detail

/** The per-thread binding of a sink type T (CRTP base). */
template <typename T>
class ThreadBound
{
  public:
    /** The sink bound to the calling thread (default: global()). */
    static T &instance() { return *bound_; }

    /** The process-wide sink behind the command-line flags / atexit. */
    static T &global() { return detail::boundGlobal<T>; }

    /** RAII: while alive, instance() on this thread is the given sink
     *  (bindings nest). */
    class Bind
    {
      public:
        explicit Bind(T &t) : prev_(bound_) { bound_ = &t; }
        ~Bind() { bound_ = prev_; }
        Bind(const Bind &) = delete;
        Bind &operator=(const Bind &) = delete;

      private:
        T *prev_;
    };

  protected:
    /** Run @p Finish on global() at process exit (registered once). */
    template <void (T::*Finish)()>
    static void
    finishGlobalAtExit()
    {
        static const bool registered =
            std::atexit(+[] { (global().*Finish)(); }) == 0;
        (void)registered;
    }

  private:
    static inline thread_local T *bound_ = &detail::boundGlobal<T>;
};

/**
 * A document kind's format, specialized next to its Run type: a
 * `static constexpr const char *schema` and `static void
 * write(std::ostream &, const Run &)`, which emits the run's fields
 * after "label", each preceded by a comma.
 */
template <typename Run>
struct RunFormat;

/** A document of labelled runs (see the file comment). */
template <typename R>
class RunDocument : public ThreadBound<RunDocument<R>>
{
  public:
    using Run = R;

    RunDocument() = default;
    RunDocument(const RunDocument &) = delete;
    RunDocument &operator=(const RunDocument &) = delete;

    /**
     * Enable collection into @p path, written by writeFile() (atexit
     * for global()). Probe-opens it now: false, and nothing changes,
     * when it cannot be created.
     */
    bool
    setOutputPath(const std::string &path)
    {
        if (!path.empty() && !detail::probeOutput(path))
            return false;
        path_ = path;
        written_ = false;
        RunDocument::template finishGlobalAtExit<&RunDocument::writeFile>();
        return true;
    }

    /** Enable (or disable) collection without an output path. */
    void setCollect(bool on) { collect_ = on; }

    /** True when runs should be deposited here. */
    bool enabled() const { return collect_ || !path_.empty(); }

    /**
     * Open a new run labelled @p label and return it to fill. An empty
     * label serializes as "gather<N>" by final document position, so
     * absorbed runs number as in a sequential sweep.
     */
    Run &
    beginRun(const std::string &label = {})
    {
        runs_.push_back({label, std::make_unique<Run>()});
        written_ = false;
        return *runs_.back().body;
    }

    /** Move @p other's runs to the end of this document (sweep merge;
     *  @p other keeps its settings). */
    void
    absorb(RunDocument &&other)
    {
        for (Entry &e : other.runs_)
            runs_.push_back(std::move(e));
        if (!other.runs_.empty())
            written_ = false;
        other.runs_.clear();
    }

    /** The whole document as a JSON string. */
    std::string
    toJson() const
    {
        std::ostringstream os;
        os << "{\n\"schema\": \"" << RunFormat<Run>::schema
           << "\",\n\"runs\": [";
        for (std::size_t i = 0; i < runs_.size(); ++i) {
            const Entry &e = runs_[i];
            os << (i ? "," : "") << "\n{\"run\":" << i << ",\"label\":\""
               << (e.label.empty() ? "gather" + std::to_string(i)
                                   : jsonEscape(e.label))
               << '"';
            RunFormat<Run>::write(os, *e.body);
            os << '}';
        }
        os << "\n]\n}\n";
        return os.str();
    }

    /** Write the document to the configured path (once per change). */
    void
    writeFile()
    {
        if (!path_.empty() && !written_)
            written_ = detail::writeOutput(path_, toJson());
    }

    /** Drop collected runs and disable (tests / rejected input). */
    void
    reset()
    {
        runs_.clear();
        path_.clear();
        collect_ = false;
        written_ = false;
    }

    std::size_t numRuns() const { return runs_.size(); }
    const Run &run(std::size_t i) const { return *runs_[i].body; }

  private:
    struct Entry
    {
        std::string label;
        /** Boxed: beginRun()'s reference outlives later beginRun()s. */
        std::unique_ptr<Run> body;
    };

    std::string path_;
    bool collect_ = false;
    std::vector<Entry> runs_;
    bool written_ = false;
};

} // namespace netsparse

#endif // NETSPARSE_SIM_RUN_DOCUMENT_HH
