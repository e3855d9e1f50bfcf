#include "sim/sweep.hh"

#include <atomic>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/span.hh"
#include "sim/stats_export.hh"
#include "sim/telemetry.hh"
#include "sim/trace.hh"

namespace netsparse {

namespace {

/** A sweep point's private documents, absorbed into the ambient ones. */
struct PointDocuments
{
    StatsExport stats;
    TelemetrySink telemetry;
    SpanSink spans;
};

} // namespace

void
SweepExecutor::run(std::size_t n,
                   const std::function<void(std::size_t)> &point)
{
    unsigned workers =
        static_cast<unsigned>(jobs_ < n ? jobs_ : (n ? n : 1));
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            point(i);
        return;
    }

    // The calling thread's sinks; each point collects what they collect.
    StatsExport &stats = StatsExport::instance();
    TelemetrySink &telemetry = TelemetrySink::instance();
    SpanSink &spans = SpanSink::instance();
    const std::string tracePath = TraceWriter::instance().path();

    std::vector<PointDocuments> points(n);
    for (PointDocuments &p : points) {
        p.stats.setCollect(stats.enabled());
        p.telemetry.setCollect(telemetry.enabled());
        p.spans.setCollect(spans.enabled());
    }

    std::atomic<std::size_t> next{0};
    std::mutex errMutex;
    std::exception_ptr firstError;
    std::size_t firstErrorIndex = n;

    auto worker = [&] {
        for (;;) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                StatsExport::Bind statsBind(points[i].stats);
                TelemetrySink::Bind telemetryBind(points[i].telemetry);
                SpanSink::Bind spansBind(points[i].spans);
                // Event traces cannot be merged after the fact (track
                // ids collide), so each point writes its own file:
                // "dir/run.json" -> "dir/run.point3.json".
                DerivedTrace trace(tracePath, "point" + std::to_string(i));
                point(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errMutex);
                if (i < firstErrorIndex) {
                    firstErrorIndex = i;
                    firstError = std::current_exception();
                }
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();

    if (firstError)
        std::rethrow_exception(firstError);

    // Index order, so the merged documents match a sequential sweep
    // byte for byte.
    for (PointDocuments &p : points) {
        stats.absorb(std::move(p.stats));
        telemetry.absorb(std::move(p.telemetry));
        spans.absorb(std::move(p.spans));
    }
}

} // namespace netsparse
