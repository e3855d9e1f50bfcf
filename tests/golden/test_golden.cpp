/**
 * @file
 * Behaviour lock: committed digests of the stats, telemetry and spans
 * documents for a small grid of configurations.
 *
 * Each case runs one gather (or one multi-tenant run) under private
 * collectors and compares the byte length and FNV-1a-64 of every
 * document with the table below - the same digest perfbench prints as
 * `stats_digest`. A refactor that claims "no behaviour change" must
 * pass this suite unmodified. Cases listed with several shard counts
 * check every count against the one committed digest, so the suite is
 * also a shard-invariance check.
 *
 * GoldenSweep runs a three-point sweep through SweepExecutor at 1 and 4
 * workers, which pins the order per-point runs are merged in and the
 * "gather<N>" labels they get.
 *
 * A mismatch prints the actual {bytes, digest} pair. Update the table
 * only for a change that is meant to move the model's outputs, and say
 * so where the change is recorded.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "runtime/job_scheduler.hh"
#include "sim/span.hh"
#include "sim/stats_export.hh"
#include "sim/sweep.hh"
#include "sim/telemetry.hh"
#include "sparse/generators.hh"

using namespace netsparse;

namespace {

/** Byte length and FNV-1a-64 of one document. */
struct Digest
{
    std::size_t bytes = 0;
    std::uint64_t fnv = 0;

    bool
    operator==(const Digest &o) const
    {
        return bytes == o.bytes && fnv == o.fnv;
    }
};

std::string
toString(const Digest &d)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "{%zu, 0x%016" PRIx64 "ull}", d.bytes,
                  d.fnv);
    return buf;
}

void
PrintTo(const Digest &d, std::ostream *os)
{
    *os << toString(d);
}

Digest
digestOf(const std::string &doc)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : doc) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return {doc.size(), h};
}

enum class Workload
{
    /** One arabic gather: ClusterSim, or JobScheduler with incast. */
    Gather,
    /** Arabic + queen tenants with FQ (JobScheduler). */
    TwoJobs,
};

struct GoldenCase
{
    const char *name;
    Workload workload = Workload::Gather;
    TopologyKind topology = TopologyKind::LeafSpine;
    std::uint32_t nodes = 16;
    std::uint32_t stage = 4;
    bool batched = false;
    bool faults = false;
    /** Incast background traffic, through JobScheduler. */
    bool incast = false;
    bool partitionedCache = false;
    bool perPipeCache = false;
    bool virtualizedCqs = false;
    std::vector<std::uint32_t> shards{1};
    Digest stats, telemetry, spans;
};

void
PrintTo(const GoldenCase &c, std::ostream *os)
{
    *os << c.name;
}

const Csr &
arabic()
{
    static const Csr m = makeBenchmarkMatrix(MatrixKind::Arabic, 0.02);
    return m;
}

GatherWorkload
sliceWork(const Csr &m, std::uint32_t nodes)
{
    GatherWorkload w;
    w.numIdxs = m.cols;
    w.part = Partition1D::equalRows(m.rows, nodes);
    w.streams.reserve(nodes);
    for (NodeId nid = 0; nid < nodes; ++nid)
        w.streams.emplace_back(
            m.colIdx.begin() + m.rowPtr[w.part.begin(nid)],
            m.colIdx.begin() + m.rowPtr[w.part.end(nid)]);
    return w;
}

ClusterConfig
configFor(const GoldenCase &c, std::uint32_t shards)
{
    ClusterConfig cfg = defaultClusterConfig(c.nodes);
    cfg.topology = c.topology;
    if (c.topology == TopologyKind::LeafSpine) {
        // 16 nodes over 4 racks, so up to 4 shards are available.
        cfg.nodesPerRack = 4;
        cfg.numSpines = 4;
    }
    cfg.features = FeatureSet::ablationStage(c.stage);
    cfg.eventBatching = c.batched;
    cfg.simShards = shards;
    cfg.spans.sampleEvery = 16;
    if (c.faults) {
        cfg.faults.dropRate = 1e-3;
        cfg.faults.corruptRate = 1e-4;
        cfg.faults.seed = 7;
    }
    if (c.workload == Workload::TwoJobs)
        cfg.fairQueue = true;
    cfg.tenantCachePartitioned = c.partitionedCache;
    cfg.cachePerPipe = c.perPipeCache;
    cfg.virtualizedCqs = c.virtualizedCqs;
    return cfg;
}

struct Documents
{
    Digest stats, telemetry, spans;
};

Documents
runCase(const GoldenCase &c, std::uint32_t shards)
{
    StatsExport stats;
    stats.setCollect(true);
    StatsExport::Bind statsBind(stats);
    TelemetrySink telemetry;
    telemetry.setCollect(true);
    TelemetrySink::Bind telemetryBind(telemetry);
    SpanSink spans;
    spans.setCollect(true);
    SpanSink::Bind spanBind(spans);

    ClusterConfig cfg = configFor(c, shards);
    if (c.workload == Workload::Gather && !c.incast) {
        ClusterSim(cfg).runGather(sliceWork(arabic(), c.nodes), 16);
    } else {
        std::vector<JobSpec> jobs(1);
        jobs[0].work = sliceWork(arabic(), c.nodes);
        jobs[0].k = 16;
        if (c.workload == Workload::TwoJobs) {
            static const Csr queen =
                makeBenchmarkMatrix(MatrixKind::Queen, 0.02);
            jobs.resize(2);
            jobs[1].work = sliceWork(queen, c.nodes);
            jobs[1].k = 8;
            jobs[1].startDelay = 2 * ticks::us;
        }
        BackgroundTrafficConfig bg;
        if (c.incast) {
            EXPECT_TRUE(
                BackgroundTrafficConfig::parse("incast:0.4:300", bg));
        }
        JobScheduler(cfg).run(std::move(jobs), bg);
    }
    return {digestOf(stats.toJson()), digestOf(telemetry.toJson()),
            digestOf(spans.toJson())};
}

const std::vector<GoldenCase> kCases = {
    {.name = "leafspine_per_event", .shards = {1, 4},
     .stats = {261898, 0xa1475634ae004973ull},
     .telemetry = {8684, 0x7f4af50e1d77ada9ull},
     .spans = {3242341, 0xf462880e21e76c12ull}},
    {.name = "leafspine_batched", .batched = true, .shards = {1, 4},
     .stats = {261931, 0xb41bf1b24f5c08b5ull},
     .telemetry = {8980, 0x3e5c2e860ec2bb33ull},
     .spans = {3246650, 0x8b9e5f2c7a237e50ull}},
    {.name = "hyperx", .topology = TopologyKind::HyperX, .nodes = 128,
     .stats = {1899858, 0xdd45247277a6a289ull},
     .telemetry = {60372, 0xac405b5fcf5e686bull},
     .spans = {5080775, 0xc6036adf32e84f7eull}},
    {.name = "dragonfly", .topology = TopologyKind::Dragonfly,
     .nodes = 128,
     .stats = {1899969, 0xac73eccc69d67ac6ull},
     .telemetry = {65118, 0xde93245698331001ull},
     .spans = {4925737, 0x1fdfb1aec9940adbull}},
    {.name = "ablation_stage0", .stage = 0,
     .stats = {257119, 0x6afbd33e65ae8d8full},
     .telemetry = {12624, 0xc703a28b55819689ull},
     .spans = {5471802, 0x50e4475066869b16ull}},
    {.name = "drop_corrupt_faults", .faults = true,
     .stats = {346606, 0x7f6eb19f3073a6ecull},
     .telemetry = {21579, 0xb2c794072500ef8cull},
     .spans = {3238284, 0x1bbe445a040d85deull}},
    {.name = "two_jobs_fq_incast", .workload = Workload::TwoJobs,
     .incast = true, .shards = {1, 4},
     .stats = {537967, 0x90ad35e7547f88e9ull},
     .telemetry = {18863, 0xd0b97f7023404605ull},
     .spans = {4060206, 0x363e8fdb04d1b36eull}},
    {.name = "two_jobs_partitioned_cache_vcq",
     .workload = Workload::TwoJobs, .partitionedCache = true,
     .virtualizedCqs = true, .shards = {1, 4},
     .stats = {540784, 0xe5d4aa41527ce35cull},
     .telemetry = {10447, 0xac4b62b87418f36bull},
     .spans = {4057573, 0xaf58d205548d007dull}},
    {.name = "per_pipe_cache_vcq", .perPipeCache = true,
     .virtualizedCqs = true, .shards = {1, 4},
     .stats = {265171, 0x582853f9db3a59dfull},
     .telemetry = {8662, 0x68d59cfa6620b63bull},
     .spans = {3242393, 0x2416c9dbf712bbc0ull}},
    {.name = "one_job_incast", .incast = true, .shards = {1, 4},
     .stats = {274046, 0x9501560e134347aeull},
     .telemetry = {18118, 0x4f65adae48651e32ull},
     .spans = {3245093, 0xc5911bad99fe8867ull}},
};

class Golden : public ::testing::TestWithParam<GoldenCase>
{};

TEST_P(Golden, DocumentDigestsMatch)
{
    const GoldenCase &c = GetParam();
    for (std::uint32_t shards : c.shards) {
        Documents got = runCase(c, shards);
        EXPECT_EQ(got.stats, c.stats)
            << c.name << " at " << shards << " shards: stats document is "
            << toString(got.stats);
        EXPECT_EQ(got.telemetry, c.telemetry)
            << c.name << " at " << shards
            << " shards: telemetry document is " << toString(got.telemetry);
        EXPECT_EQ(got.spans, c.spans)
            << c.name << " at " << shards << " shards: spans document is "
            << toString(got.spans);
    }
}

INSTANTIATE_TEST_SUITE_P(Configs, Golden, ::testing::ValuesIn(kCases),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });

/** The sweep's points on the 16-node leafspine: (stage, batched). */
const std::pair<std::uint32_t, bool> kSweepPoints[] = {
    {4, false}, {0, false}, {4, true}};

Documents
runSweep(unsigned jobs)
{
    StatsExport stats;
    stats.setCollect(true);
    StatsExport::Bind statsBind(stats);
    TelemetrySink telemetry;
    telemetry.setCollect(true);
    TelemetrySink::Bind telemetryBind(telemetry);
    SpanSink spans;
    spans.setCollect(true);
    SpanSink::Bind spanBind(spans);

    SweepExecutor(jobs).run(std::size(kSweepPoints), [](std::size_t i) {
        GoldenCase c;
        c.name = "sweep";
        c.stage = kSweepPoints[i].first;
        c.batched = kSweepPoints[i].second;
        ClusterSim(configFor(c, 1)).runGather(sliceWork(arabic(), c.nodes),
                                              16);
    });
    return {digestOf(stats.toJson()), digestOf(telemetry.toJson()),
            digestOf(spans.toJson())};
}

TEST(GoldenSweep, MergedDocumentsMatchAtOneAndFourJobs)
{
    const Documents want = {
        .stats = {780854, 0xe169f124f479716full},
        .telemetry = {30186, 0xe70bb19448bfc9e5ull},
        .spans = {11960699, 0x8e9905432230a464ull},
    };
    for (unsigned jobs : {1u, 4u}) {
        Documents got = runSweep(jobs);
        EXPECT_EQ(got.stats, want.stats)
            << jobs << " jobs: stats document is " << toString(got.stats);
        EXPECT_EQ(got.telemetry, want.telemetry)
            << jobs << " jobs: telemetry document is "
            << toString(got.telemetry);
        EXPECT_EQ(got.spans, want.spans)
            << jobs << " jobs: spans document is " << toString(got.spans);
    }
}

} // namespace
