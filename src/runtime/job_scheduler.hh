/**
 * @file
 * Multi-tenant job scheduler: N concurrent gather jobs on one fabric.
 *
 * A JobSpec is one tenant: its own workload (matrix partition and
 * per-node index streams), its own K, and an optional admission delay.
 * The scheduler instantiates one virtual SNIC slice per (node, tenant)
 * - each with its own RIG units, Idx Filter and retry state - sharing
 * the node's physical NIC egress link, and runs every job to
 * completion on the shared switches and links. PRs carry their
 * tenant id (net/protocol.hh), which tenant-qualifies the ToR Property
 * Cache keys and selects the fair-queueing lane at switch output
 * ports; optional synthetic background traffic (net/background.hh)
 * contends for the same wires.
 *
 * Determinism contract: like the single-job cluster, a multi-job run's
 * stats and telemetry documents are byte-identical at every shard
 * count. Everything tenant-related hangs off per-run-deterministic
 * state (construction-order ordering ids, per-(node,tenant) components
 * registered under cluster-wide order keys, hash-driven background
 * streams), so adding shards changes wall-clock time only.
 *
 * A single job with no background traffic takes the exact legacy
 * construction path - same component names, same stats document - so
 * ClusterSim::runGather delegates here unconditionally.
 */

#ifndef NETSPARSE_RUNTIME_JOB_SCHEDULER_HH
#define NETSPARSE_RUNTIME_JOB_SCHEDULER_HH

#include <string>
#include <vector>

#include "net/background.hh"
#include "runtime/cluster.hh"

namespace netsparse {

/** One tenant's admission request. */
struct JobSpec
{
    /** The job's matrix partition and per-node index streams. */
    GatherWorkload work;
    /** Property vector width (propBytes = 4 * k). */
    std::uint32_t k = 16;
    /** Admission time: hosts start issuing at this tick (0 = at t0). */
    Tick startDelay = 0;
    /** Display name ("job<t>" when empty). */
    std::string name;
};

/** The outcome of a multi-job run. */
struct MultiJobResult
{
    /** Per-tenant results, in JobSpec order. */
    std::vector<GatherRunResult> jobs;
    /** Last job completion (the multi-tenant "communication time"). */
    Tick makespanTicks = 0;

    // Shared-fabric totals (per-job splits are not defined for these).
    std::uint64_t totalWireBytes = 0;
    std::uint64_t packetsDropped = 0;
    std::uint64_t cacheLookups = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t prsServedByCache = 0;

    // Engine outcome (same meaning as GatherRunResult's copies).
    std::uint64_t executedEvents = 0;
    Tick finalTick = 0;
    std::uint32_t simShards = 1;
    Tick lookaheadTicks = 0;
    std::uint64_t epochs = 0;

    // Background traffic accounting (zero when disabled).
    std::uint64_t backgroundPackets = 0;
    std::uint64_t backgroundBytes = 0;
    std::uint64_t backgroundDelivered = 0;
    std::uint64_t backgroundDeliveredBytes = 0;
};

/**
 * Admits concurrent gather jobs onto one shared simulated fabric.
 * Construct-per-run, like ClusterSim.
 */
class JobScheduler
{
  public:
    explicit JobScheduler(ClusterConfig cfg);

    /**
     * Run every job to completion (plus the background traffic's fixed
     * packet budget) and collect per-tenant results. Fatals if any
     * host is still unfinished at ClusterConfig::maxSimTime.
     */
    MultiJobResult run(std::vector<JobSpec> &&jobs,
                       const BackgroundTrafficConfig &bg = {});

  private:
    ClusterConfig cfg_;
};

} // namespace netsparse

#endif // NETSPARSE_RUNTIME_JOB_SCHEDULER_HH
