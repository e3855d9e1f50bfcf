/**
 * @file
 * The host reference kernel: a fixed batch of work, independent of the
 * netsparse library, timed next to every measured call so that host
 * times can be expressed at a fixed host speed.
 *
 * A shared host runs the same code up to 1.5x slower for minutes at a
 * time when its other tenants load the memory system or the cores'
 * siblings. The kernel is built to slow down the way the simulator
 * does: an event-queue-like binary heap whose pops update slots of a
 * 32 MB table per thread at random, i.e. branchy integer work plus cache
 * and TLB misses. run(threads) runs one batch on each of @p threads
 * threads at once and returns the wall time of the slowest, as the
 * barrier of a sharded simulation waits for its slowest shard.
 */

#ifndef PERFBENCH_REFERENCE_HH
#define PERFBENCH_REFERENCE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "measure.hh"

namespace perfbench {

/**
 * Wall seconds one batch is defined to take at reference speed (about
 * its time on an unloaded 4-core Xeon VM). A host time t measured next
 * to a batch that took r seconds is reported as t * kReferenceBatchS / r.
 */
constexpr double kReferenceBatchS = 0.030;

class ReferenceKernel
{
  public:
    /** Tables for up to @p maxThreads threads. */
    explicit ReferenceKernel(unsigned maxThreads)
        : tables_(maxThreads, std::vector<std::uint64_t>(kTableSlots))
    {
        for (std::vector<std::uint64_t> &t : tables_)
            for (std::size_t i = 0; i < t.size(); ++i)
                t[i] = i * 0x9E3779B97F4A7C15ull;
        sums_.resize(maxThreads);
    }

    /** Wall seconds of one batch on each of @p threads threads at once. */
    double
    run(unsigned threads)
    {
        const double t0 = wallNow();
        if (threads <= 1) {
            sums_[0] += batch(tables_[0]);
        } else {
            std::vector<std::thread> workers;
            for (std::size_t i = 0; i < threads && i < tables_.size(); ++i)
                workers.emplace_back(
                    [this, i] { sums_[i] += batch(tables_[i]); });
            for (std::thread &w : workers)
                w.join();
        }
        return wallNow() - t0;
    }

    /** Folded result of every batch, so that no work is optimized out. */
    std::uint64_t
    checksum() const
    {
        std::uint64_t s = 0;
        for (std::uint64_t v : sums_)
            s ^= v;
        return s;
    }

  private:
    static constexpr std::size_t kTableSlots = std::size_t{1} << 22;

    static std::uint64_t
    batch(std::vector<std::uint64_t> &table)
    {
        std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                            std::greater<>>
            heap;
        std::uint64_t x = 0x1234567ull, acc = 0;
        for (int i = 0; i < 16384; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            heap.push(x >> 24);
        }
        const std::size_t mask = table.size() - 1;
        for (int i = 0; i < 160000; ++i) {
            const std::uint64_t now = heap.top();
            heap.pop();
            std::uint64_t &slot = table[(now * 0x9E3779B97F4A7C15ull ^ acc) &
                                        mask];
            slot = slot * 31 + now;
            acc += slot >> 7;
            heap.push(now + 1 + (slot & 0xffff));
        }
        return acc;
    }

    std::vector<std::vector<std::uint64_t>> tables_;
    std::vector<std::uint64_t> sums_;
};

/**
 * Brackets consecutive samples with reference batches: scale() runs the
 * batch that ends the sample just taken and returns the factor that
 * brings it to reference speed, kReferenceBatchS over the mean of the
 * batches before and after it.
 */
class ReferenceClock
{
  public:
    ReferenceClock(ReferenceKernel &kernel, unsigned threads)
        : kernel_(kernel), threads_(threads), last_(kernel.run(threads))
    {
        batches_.push_back(last_);
    }

    double
    scale()
    {
        const double next = kernel_.run(threads_);
        const double s = kReferenceBatchS / (0.5 * (last_ + next));
        last_ = next;
        batches_.push_back(next);
        return s;
    }

    /** Wall seconds of every batch so far, in run order. */
    const std::vector<double> &batches() const { return batches_; }

  private:
    ReferenceKernel &kernel_;
    unsigned threads_;
    double last_;
    std::vector<double> batches_;
};

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_HH
