/**
 * @file
 * The benchmark's four gather workloads, as data plus one runner.
 *
 * A workload names its matrices, its cluster and how one simulation
 * "pass" drives the library: one ClusterSim::runGather per (matrix,
 * ablation stage) point - optionally bracketed by runSuOpt and
 * composeEndToEnd like the figure benches - or a single
 * JobScheduler::run over all matrices as concurrent tenants.
 *
 * The seed enters every random input: the generator seeds, the
 * FaultConfig seed and the BackgroundTrafficConfig seed - or, for a
 * rotated workload, the relabeling of its matrix. Seed 0 leaves them at
 * the library defaults, so it reproduces the inputs of
 * makeBenchmarkMatrix / buildPartitionedBenchmark exactly.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "measure.hh"
#include "net/background.hh"
#include "runtime/cluster.hh"
#include "runtime/job_scheduler.hh"
#include "sparse/csr.hh"
#include "sparse/generators.hh"

namespace perfbench {

using namespace netsparse;

/** Property width K (4-byte elements) of every workload. */
constexpr std::uint32_t kPropertyWidth = 16;

/** What a workload runs; see workloadSpec() for the four presets. */
struct WorkloadSpec
{
    std::string name;
    std::vector<MatrixKind> kinds;
    double scale = 1.0;
    std::uint32_t nodes = 128;
    /** Stream-generate per-node partitions (no global CSR). */
    bool streamed = false;
    /**
     * Vary the input with the seed by rotating the index space of the
     * default-seeded matrix by whole nodes' rows instead of re-seeding
     * its generator.
     */
    bool rotate = false;
    bool eventBatching = true;
    std::uint32_t shards = 1;
    /** Ablation stages each matrix runs at (4 = every feature). */
    std::vector<std::uint32_t> stages{4};
    /** Bracket each gather with runSuOpt and composeEndToEnd. */
    bool baselines = false;
    /** One JobScheduler run with every matrix as a tenant. */
    bool multiTenant = false;
};

/**
 * The named preset, or false for an unknown name. @p tiny shrinks it to
 * a seconds-scale smoke size; @p shards overrides the shard count when
 * nonzero.
 */
bool workloadSpec(const std::string &name, bool tiny,
                  std::uint32_t shards, WorkloadSpec &out);

/** One matrix's inputs, ready for the simulator. */
struct Input
{
    MatrixKind kind = MatrixKind::Arabic;
    std::uint32_t numIdxs = 0;
    Partition1D part;
    /** Materialized matrix (empty when streamed). */
    Csr matrix;
    /** Streamed per-node index streams (empty when materialized). */
    std::vector<std::vector<std::uint32_t>> streams;
    /** Stream length per node, for the audit. */
    std::vector<std::uint64_t> streamLen;

    /** Node @p n's row-scan index stream. */
    std::span<const std::uint32_t> stream(NodeId n) const;
    /** A fresh GatherWorkload (copies the streams). */
    GatherWorkload workload() const;
};

/** Host time of one setup, split by layer. */
struct SetupTimes
{
    double total = 0, generate = 0, partition = 0;
    std::uint64_t nnz = 0;
};

/** Simulated per-layer counts of a pass, summed over its gathers. */
struct SimCounts
{
    std::uint64_t events = 0, epochs = 0;
    Tick comm = 0;
    std::uint64_t remoteIdxs = 0, filteredCoalesced = 0;
    std::uint64_t prsIssued = 0, serverReads = 0;
    std::uint64_t pendingStalls = 0, txStalls = 0;
    std::uint64_t rxPackets = 0;
    double prsPerPacketWeighted = 0; // sum of avgPrsPerPacket * packets
    std::uint64_t wireBytes = 0;
    double tailGoodputSum = 0;
    std::uint32_t gathers = 0;
    std::uint64_t cacheLookups = 0, cacheHits = 0, cacheServed = 0;
    std::uint64_t retransmits = 0, nacks = 0, retriesExhausted = 0;
    std::uint64_t packetsDropped = 0;
    std::uint64_t bgPackets = 0, bgDelivered = 0;
};

/** Outcome of one timed pass. */
struct PassResult
{
    /** Host wall and process-CPU seconds of the pass's calls. */
    double wall = 0, cpu = 0;
    std::uint32_t calls = 0; // simulation calls (audited units)
    std::uint32_t failedCalls = 0;
    std::uint32_t shards = 1;
    SimCounts counts;
    std::vector<std::string> violations;
};

/** Owns a workload's inputs and drives the library over them. */
class Workload
{
  public:
    Workload(WorkloadSpec spec, std::uint64_t seed);

    const std::vector<Input> &inputs() const { return inputs_; }

    /** Generate and partition every matrix, replacing prior inputs. */
    SetupTimes setup(SpanRecorder &rec);

    /** Run one pass: every simulation call, audited, wall-timed. */
    PassResult pass(SpanRecorder &rec);

    /**
     * Build the pass's cluster(s) and run them on empty idx streams,
     * i.e. the runtime's construction cost alone. Returns wall seconds
     * per cluster build.
     */
    double buildOnly(SpanRecorder &rec);

    /** One JobSpec per matrix, as concurrent tenants (copies streams). */
    std::vector<JobSpec> jobSpecs() const;

    /** One JobScheduler run of @p jobs with the workload's background. */
    MultiJobResult runJobs(std::vector<JobSpec> jobs) const;

    /** The ClusterConfig a point runs with. */
    ClusterConfig clusterConfig(std::uint32_t stage) const;

  private:
    BackgroundTrafficConfig backgroundConfig() const;

    WorkloadSpec spec_;
    std::uint64_t seed_;
    std::vector<Input> inputs_;
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
