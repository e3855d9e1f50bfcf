#include "layers.hh"

#include <deque>
#include <functional>
#include <vector>

#include "cache/property_cache.hh"
#include "concat/concatenator.hh"
#include "sim/arena.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "snic/idx_filter.hh"
#include "snic/pending_table.hh"

namespace perfbench {

namespace {

/** Keeps a result observable so the timed loop is not elided. */
volatile std::uint64_t g_sink = 0;

/**
 * Median ns/op of @p body over @p reps repetitions. Each repetition
 * calls body() until at least @p minSeconds have passed; body returns
 * the ops it performed.
 */
double
timeNsPerOp(const std::function<std::uint64_t()> &body, int reps = 5,
            double minSeconds = 0.02)
{
    std::vector<double> samples;
    for (int r = 0; r < reps; ++r) {
        std::uint64_t ops = 0;
        double t0 = wallNow(), t = t0;
        do {
            ops += body();
            t = wallNow();
        } while (t - t0 < minSeconds);
        samples.push_back(ops ? (t - t0) * 1e9 / ops : 0.0);
    }
    return median(samples);
}

/** Remote idxs of node @p n's stream, in stream order. */
std::vector<std::uint32_t>
remoteIdxs(const Input &in, NodeId n)
{
    std::vector<std::uint32_t> out;
    for (std::uint32_t idx : in.stream(n))
        if (in.part.ownerOf(idx) != n)
            out.push_back(idx);
    return out;
}

/** Nodes whose streams feed the per-node microbenches (one rack). */
constexpr std::uint32_t kFeedNodes = 16;

double
eventChainNs(std::uint64_t hops)
{
    return timeNsPerOp([hops] {
        EventQueue eq;
        std::uint64_t left = hops;
        std::function<void()> hop = [&] {
            if (--left)
                eq.scheduleIn(450, hop);
        };
        eq.schedule(0, hop);
        eq.run();
        g_sink = g_sink + left;
        return hops;
    });
}

double
ownerOfNs(const Partition1D &part, const std::vector<std::uint32_t> &idxs)
{
    return timeNsPerOp([&] {
        std::uint64_t sum = 0;
        for (std::uint32_t idx : idxs)
            sum += part.ownerOf(idx);
        g_sink = g_sink + sum;
        return static_cast<std::uint64_t>(idxs.size());
    });
}

} // namespace

std::map<std::string, double>
layerMicrobenches(const Workload &w, SpanRecorder &rec)
{
    const Input &in = w.inputs().front();
    const std::uint32_t nodes =
        std::min<std::uint32_t>(kFeedNodes, in.part.numParts());
    std::vector<std::vector<std::uint32_t>> remote(nodes);
    std::vector<std::uint32_t> all;
    for (NodeId n = 0; n < nodes; ++n) {
        remote[n] = remoteIdxs(in, n);
        auto s = in.stream(n);
        all.insert(all.end(), s.begin(), s.end());
    }
    std::map<std::string, double> out;

    {
        SpanRecorder::Scope s(rec, "microbench.owner_of");
        out["sparse.owner_of_ns"] = ownerOfNs(in.part, all);
    }
    {
        // Idx Filter: one fresh filter per node, test-then-set per idx.
        SpanRecorder::Scope s(rec, "microbench.idx_filter");
        out["snic.idx_filter_probe_ns"] = timeNsPerOp([&] {
            std::uint64_t ops = 0, hits = 0;
            for (NodeId n = 0; n < nodes; ++n) {
                IdxFilter filter(in.numIdxs);
                for (std::uint32_t idx : in.stream(n)) {
                    if (filter.test(idx))
                        ++hits;
                    else
                        filter.set(idx);
                }
                ops += in.stream(n).size();
            }
            g_sink = g_sink + hits;
            return ops;
        });
    }
    {
        // Pending PR Table: remote idxs coalesce onto outstanding
        // entries; the oldest PR completes when the table is full.
        SpanRecorder::Scope s(rec, "microbench.pending_table");
        const std::uint32_t cap = RigUnitConfig{}.pendingCapacity;
        out["snic.pending_table_ns"] = timeNsPerOp([&] {
            std::uint64_t ops = 0, served = 0;
            for (NodeId n = 0; n < nodes; ++n) {
                PendingPrTable table(cap);
                std::deque<std::uint32_t> fifo;
                for (std::uint32_t idx : remote[n]) {
                    if (table.contains(idx)) {
                        table.addWaiter(idx);
                        continue;
                    }
                    if (table.full()) {
                        served += table.complete(fifo.front());
                        fifo.pop_front();
                    }
                    table.insert(idx);
                    fifo.push_back(idx);
                }
                ops += remote[n].size();
            }
            g_sink = g_sink + served;
            return ops;
        });
    }
    {
        // NIC concatenator: every remote idx as a read PR toward its
        // owner; simulated time advances past the CQ delay now and then
        // so CQs flush by expiry as well as by fill.
        SpanRecorder::Scope s(rec, "microbench.concat");
        ClusterConfig cc = w.clusterConfig(4);
        out["concat.push_ns"] = timeNsPerOp([&] {
            std::uint64_t ops = 0, packets = 0;
            EventQueue eq;
            ConcatConfig cfg;
            cfg.delay = static_cast<Tick>(cc.nicConcatDelayCycles *
                                          1e12 / 2.2e9);
            Concatenator concat(eq, cfg,
                                [&packets](Packet &&pkt) {
                                    ++packets;
                                    recyclePrBuffer(std::move(pkt.prs));
                                },
                                "perfbench");
            for (NodeId n = 0; n < nodes; ++n) {
                for (std::uint32_t idx : remote[n]) {
                    PropertyRequest pr;
                    pr.src = n;
                    pr.idx = idx;
                    pr.propBytes = 4 * kPropertyWidth;
                    concat.push(std::move(pr), in.part.ownerOf(idx));
                    if ((++ops & 0xFFF) == 0)
                        eq.runUntil(eq.now() + 2 * cfg.delay);
                }
            }
            concat.flushAll();
            eq.run();
            g_sink = g_sink + packets;
            return ops;
        });
    }
    {
        // ToR Property Cache: one rack's remote reads, looked up and
        // inserted on miss, starting cold like every simulated gather.
        SpanRecorder::Scope s(rec, "microbench.cache");
        PropertyCacheConfig pc;
        pc.totalBytes = w.clusterConfig(4).propertyCacheBytes;
        out["cache.lookup_insert_ns"] = timeNsPerOp([&] {
            PropertyCache cache(pc);
            cache.configureForKernel(4 * kPropertyWidth);
            std::uint64_t ops = 0, checksum = 0;
            for (NodeId n = 0; n < nodes; ++n) {
                for (std::uint32_t idx : remote[n])
                    if (!cache.lookup(idx, checksum))
                        cache.insert(idx, idx);
                ops += remote[n].size();
            }
            g_sink = g_sink + cache.hits();
            return ops;
        });
    }
    {
        SpanRecorder::Scope s(rec, "microbench.event_queue");
        out["sim.event_queue_ns"] = eventChainNs(1 << 16);
    }
    return out;
}

Calibration
calibrate()
{
    Calibration c;
    c.eventChainNs = eventChainNs(1 << 16);
    const std::uint32_t idxs = 1u << 20;
    Partition1D part = Partition1D::equalRows(idxs, 128);
    std::vector<std::uint32_t> probe(1 << 18);
    for (std::size_t i = 0; i < probe.size(); ++i)
        probe[i] = static_cast<std::uint32_t>(splitmix64(i) % idxs);
    c.ownerOfNs = ownerOfNs(part, probe);
    return c;
}

} // namespace perfbench
