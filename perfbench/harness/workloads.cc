#include "workloads.hh"

#include <algorithm>
#include <thread>
#include <utility>
#include <variant>

#include "audit.hh"
#include "baseline/baselines.hh"
#include "compute/models.hh"
#include "runtime/end_to_end.hh"
#include "sim/rng.hh"
#include "sparse/stream_gen.hh"

namespace perfbench {

namespace {

/** What the run seed adds to every library base seed (0 for seed 0). */
std::uint64_t
seedOffset(std::uint64_t seed)
{
    return seed * 0x9E3779B97F4A7C15ull;
}

/**
 * Relabel a square matrix's index space by a cyclic shift of a
 * seed-chosen number of nodes' rows (none for seed 0): every node gets
 * another node's rows and properties and may change rack, while the
 * matrix and its split into node-sized pieces stay the same.
 */
void
rotate(Coo &coo, std::uint64_t seed, std::uint32_t nodes)
{
    const std::uint32_t n = coo.rows;
    const auto node =
        static_cast<NodeId>(seed ? splitmix64(seed) % nodes : 0);
    const std::uint32_t shift =
        Partition1D::equalRows(n, nodes).begin(node);
    for (std::uint32_t &r : coo.rowIdx)
        r = static_cast<std::uint32_t>((std::uint64_t{r} + shift) % n);
    for (std::uint32_t &c : coo.colIdx)
        c = static_cast<std::uint32_t>((std::uint64_t{c} + shift) % n);
}

/**
 * The streamed counterpart of rotate(): node (n + k) mod N receives the
 * rows node n owned, each idx shifted by the same whole nodes' rows.
 */
std::vector<std::vector<std::uint32_t>>
rotateStreams(PartitionedMatrix &pm, std::uint64_t seed)
{
    const std::uint32_t n = pm.rows, nodes = pm.part.numParts();
    const auto node =
        static_cast<NodeId>(seed ? splitmix64(seed) % nodes : 0);
    const std::uint32_t shift = pm.part.begin(node);
    if (shift == 0)
        return pm.takeStreams();
    std::vector<std::vector<std::uint32_t>> out(nodes);
    for (NodeId m = 0; m < nodes; ++m) {
        for (std::uint32_t r = pm.part.begin(m); r < pm.part.end(m); ++r) {
            const std::uint32_t old = (r + n - shift) % n;
            const NodeCsr &src = pm.nodes[pm.part.ownerOf(old)];
            const std::uint32_t local = old - src.firstRow;
            for (std::uint64_t i = src.rowPtr[local];
                 i < src.rowPtr[local + 1]; ++i)
                out[m].push_back(static_cast<std::uint32_t>(
                    (std::uint64_t{src.colIdx[i]} + shift) % n));
        }
    }
    pm.nodes.clear();
    return out;
}

} // namespace

bool
workloadSpec(const std::string &name, bool tiny, std::uint32_t shards,
             WorkloadSpec &out)
{
    WorkloadSpec s;
    s.name = name;
    if (name == "gather-canonical") {
        // bench_perf's configuration and matrix at a quarter of its
        // scale: a call short enough that a run takes dozens of samples.
        s.kinds = {MatrixKind::Arabic};
        s.scale = 0.25;
        s.rotate = true;
    } else if (name == "gather-sharded") {
        s.kinds = {MatrixKind::Uk};
        s.scale = 0.25;
        s.nodes = 256;
        s.streamed = true;
        s.rotate = true;
        // Half the host's cores: the barrier-synchronized shards run at
        // the pace of the slowest, so one shard per core on a shared
        // host lets any other process stall the whole engine.
        s.shards =
            std::clamp(std::thread::hardware_concurrency() / 2, 1u, 4u);
    } else if (name == "figure-sweep") {
        // The figure benches' defaults: per-event execution, stages 0
        // (RIG offload only) and 4 (every feature), SUOpt + end-to-end
        // composition around each gather.
        s.kinds = allMatrixKinds();
        s.scale = 0.02;
        s.eventBatching = false;
        s.stages = {0, 4};
        s.baselines = true;
    } else if (name == "multi-tenant-lossy") {
        s.kinds = {MatrixKind::Stokes, MatrixKind::Arabic};
        s.scale = 0.25;
        s.multiTenant = true;
    } else {
        return false;
    }
    if (tiny) {
        s.scale *= 0.05;
        s.nodes = 64; // 4 racks, so 4 shards still split the cluster
    }
    if (shards)
        s.shards = shards;
    out = std::move(s);
    return true;
}

std::span<const std::uint32_t>
Input::stream(NodeId n) const
{
    if (!streams.empty())
        return streams[n];
    return {matrix.colIdx.data() + matrix.rowPtr[part.begin(n)],
            matrix.colIdx.data() + matrix.rowPtr[part.end(n)]};
}

GatherWorkload
Input::workload() const
{
    GatherWorkload w;
    w.numIdxs = numIdxs;
    w.part = part;
    w.streams.reserve(part.numParts());
    for (NodeId n = 0; n < part.numParts(); ++n) {
        auto s = stream(n);
        w.streams.emplace_back(s.begin(), s.end());
    }
    return w;
}

Workload::Workload(WorkloadSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), seed_(seed)
{}

ClusterConfig
Workload::clusterConfig(std::uint32_t stage) const
{
    ClusterConfig cfg = defaultClusterConfig(spec_.nodes);
    cfg.simShards = spec_.shards;
    cfg.eventBatching = spec_.eventBatching;
    cfg.features = FeatureSet::ablationStage(stage);
    if (spec_.multiTenant) {
        cfg.fairQueue = true;
        cfg.faults.dropRate = 1e-4;
        cfg.faults.corruptRate = 1e-5;
        cfg.faults.seed += seedOffset(seed_);
    }
    return cfg;
}

BackgroundTrafficConfig
Workload::backgroundConfig() const
{
    BackgroundTrafficConfig bg;
    if (spec_.multiTenant) {
        bg.pattern = BackgroundPattern::Incast;
        bg.load = 0.5;
        bg.packetsPerSource = 2000;
        bg.seed += seedOffset(seed_);
    }
    return bg;
}

SetupTimes
Workload::setup(SpanRecorder &rec)
{
    SpanRecorder::Scope whole(rec, "setup");
    SetupTimes t;
    double t0 = wallNow();
    inputs_.clear(); // the previous setup's memory is not kept alive
    inputs_.resize(spec_.kinds.size());
    for (std::size_t i = 0; i < spec_.kinds.size(); ++i) {
        Input &in = inputs_[i];
        in.kind = spec_.kinds[i];
        GeneratorParams params = benchmarkParams(in.kind, spec_.scale);
        if (!spec_.rotate)
            std::visit([&](auto &p) { p.seed += seedOffset(seed_); },
                       params);

        double g0 = wallNow();
        PartitionedMatrix pm;
        {
            SpanRecorder::Scope s(rec, "generate");
            if (spec_.streamed) {
                pm = buildPartitionedMatrix(params, spec_.nodes);
            } else {
                Coo coo = makeMatrix(params);
                if (spec_.rotate)
                    rotate(coo, seed_, spec_.nodes);
                coo.validate();
                in.matrix = Csr::fromCoo(coo);
            }
        }
        double g1 = wallNow();
        {
            SpanRecorder::Scope s(rec, "partition");
            if (spec_.streamed) {
                in.numIdxs = pm.cols;
                in.part = pm.part;
                in.streams = spec_.rotate ? rotateStreams(pm, seed_)
                                          : pm.takeStreams();
            } else {
                in.numIdxs = in.matrix.cols;
                in.part = Partition1D::equalRows(in.matrix.rows,
                                                 spec_.nodes);
            }
            in.streamLen.resize(spec_.nodes);
            for (NodeId n = 0; n < spec_.nodes; ++n)
                in.streamLen[n] = in.stream(n).size();
        }
        double g2 = wallNow();
        t.generate += g1 - g0;
        t.partition += g2 - g1;
        for (std::uint64_t len : in.streamLen)
            t.nnz += len;
    }
    t.total = wallNow() - t0;
    return t;
}

std::vector<JobSpec>
Workload::jobSpecs() const
{
    std::vector<JobSpec> jobs(inputs_.size());
    for (std::size_t j = 0; j < inputs_.size(); ++j) {
        jobs[j].work = inputs_[j].workload();
        jobs[j].k = kPropertyWidth;
        jobs[j].name = matrixName(inputs_[j].kind);
    }
    return jobs;
}

MultiJobResult
Workload::runJobs(std::vector<JobSpec> jobs) const
{
    return JobScheduler(clusterConfig(4)).run(std::move(jobs),
                                              backgroundConfig());
}

namespace {

void
addGather(SimCounts &c, const GatherRunResult &r)
{
    std::uint64_t packets = 0;
    for (const NodeRunStats &st : r.nodes) {
        packets += st.rxPackets;
        c.remoteIdxs += st.remoteIdxs();
        c.filteredCoalesced += st.filtered + st.coalesced;
        c.prsIssued += st.prsIssued;
        c.serverReads += st.rxReads;
        c.pendingStalls += st.pendingStalls;
        c.txStalls += st.txStalls;
        c.retransmits += st.retransmits;
        c.nacks += st.nacks;
        c.retriesExhausted += st.retriesExhausted;
    }
    c.rxPackets += packets;
    c.prsPerPacketWeighted += r.avgPrsPerPacket * packets;
    c.tailGoodputSum += r.tailGoodput;
    ++c.gathers;
}

/** Fabric-wide totals, which GatherRunResult and MultiJobResult share. */
template <typename Result>
void
addFabric(SimCounts &c, const Result &r)
{
    c.events += r.executedEvents;
    c.epochs += r.epochs;
    c.wireBytes += r.totalWireBytes;
    c.cacheLookups += r.cacheLookups;
    c.cacheHits += r.cacheHits;
    c.cacheServed += r.prsServedByCache;
    c.packetsDropped += r.packetsDropped;
}

void
recordViolations(PassResult &out, std::vector<std::string> v,
                 const std::string &where)
{
    if (v.empty())
        return;
    ++out.failedCalls;
    for (std::string &s : v)
        out.violations.push_back(where + ": " + s);
}

} // namespace

PassResult
Workload::pass(SpanRecorder &rec)
{
    SpanRecorder::Scope whole(rec, "pass");
    PassResult out;
    const std::uint32_t k = kPropertyWidth;

    if (spec_.multiTenant) {
        std::vector<JobSpec> jobs = jobSpecs();
        std::vector<std::vector<std::uint64_t>> lens;
        for (const Input &in : inputs_)
            lens.push_back(in.streamLen);
        MultiJobResult mr;
        double w0 = wallNow(), c0 = cpuNow();
        {
            SpanRecorder::Scope s(rec, "run");
            mr = runJobs(std::move(jobs));
        }
        out.wall = wallNow() - w0;
        out.cpu = cpuNow() - c0;
        out.calls = 1;
        out.shards = mr.simShards;
        recordViolations(out, auditMultiJob(mr, lens), "jobs");
        for (const GatherRunResult &jr : mr.jobs)
            addGather(out.counts, jr);
        addFabric(out.counts, mr);
        out.counts.comm = mr.makespanTicks;
        out.counts.bgPackets = mr.backgroundPackets;
        out.counts.bgDelivered = mr.backgroundDelivered;
        return out;
    }

    // Streamed inputs are consumed by runGather: copy them before the
    // clock starts. Materialized inputs go through the Csr overload,
    // whose per-node slicing is part of what users wait on.
    std::vector<GatherWorkload> prepared;
    if (spec_.streamed)
        for (const Input &in : inputs_)
            for (std::size_t s = 0; s < spec_.stages.size(); ++s)
                prepared.push_back(in.workload());

    struct Point
    {
        GatherRunResult gather;
        Tick suopt = 0, endToEnd = 0;
    };
    std::vector<Point> points;
    points.reserve(inputs_.size() * spec_.stages.size());
    const EndToEndConfig e2e{spadeAccelerator(), 0.5};
    std::size_t next_prepared = 0;

    for (const Input &in : inputs_) {
        for (std::uint32_t stage : spec_.stages) {
            double w0 = wallNow(), c0 = cpuNow();
            Point pt;
            if (spec_.baselines) {
                SpanRecorder::Scope s(rec, "suopt");
                pt.suopt = runSuOpt(in.matrix, in.part, k, BaselineParams{})
                               .commTicks;
            }
            {
                SpanRecorder::Scope s(rec, "run");
                ClusterSim sim(clusterConfig(stage));
                pt.gather =
                    spec_.streamed
                        ? sim.runGather(std::move(prepared[next_prepared++]),
                                        k)
                        : sim.runGather(in.matrix, in.part, k);
            }
            if (spec_.baselines) {
                SpanRecorder::Scope s(rec, "compose");
                std::vector<Tick> comm(pt.gather.nodes.size());
                for (std::size_t n = 0; n < comm.size(); ++n)
                    comm[n] = pt.gather.nodes[n].finishTick;
                pt.endToEnd =
                    composeEndToEnd(in.matrix, in.part, k, comm, e2e)
                        .totalTicks;
            }
            out.wall += wallNow() - w0;
            out.cpu += cpuNow() - c0;
            points.push_back(std::move(pt));
        }
    }

    std::size_t p = 0;
    for (const Input &in : inputs_) {
        for (std::uint32_t stage : spec_.stages) {
            const Point &pt = points[p++];
            const GatherRunResult &r = pt.gather;
            std::string where = std::string(matrixName(in.kind)) +
                                " stage " + std::to_string(stage);
            std::vector<std::string> v = auditGather(r, in.streamLen);
            if (spec_.baselines) {
                if (pt.suopt == 0)
                    v.push_back("SUOpt commTicks is 0");
                if (pt.endToEnd < r.commTicks)
                    v.push_back("end-to-end time below commTicks");
            }
            ++out.calls;
            recordViolations(out, std::move(v), where);
            addGather(out.counts, r);
            addFabric(out.counts, r);
            out.counts.comm += r.commTicks;
            out.shards = r.simShards;
        }
    }
    return out;
}

double
Workload::buildOnly(SpanRecorder &rec)
{
    SpanRecorder::Scope s(rec, "build");
    const Input &in = inputs_.front();
    auto empty = [&] {
        GatherWorkload w;
        w.numIdxs = in.numIdxs;
        w.part = in.part;
        w.streams.resize(spec_.nodes);
        return w;
    };
    std::uint32_t stage = spec_.stages.back();
    double t0 = wallNow();
    if (spec_.multiTenant) {
        std::vector<JobSpec> jobs(inputs_.size());
        for (JobSpec &j : jobs) {
            j.work = empty();
            j.k = kPropertyWidth;
        }
        JobScheduler(clusterConfig(stage)).run(std::move(jobs));
    } else {
        ClusterSim(clusterConfig(stage)).runGather(empty(), kPropertyWidth);
    }
    return wallNow() - t0;
}

} // namespace perfbench
