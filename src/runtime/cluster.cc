#include "runtime/cluster.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "runtime/job_scheduler.hh"
#include "sim/logging.hh"

namespace netsparse {

ClusterConfig
defaultClusterConfig(std::uint32_t nodes)
{
    ClusterConfig cfg;
    cfg.numNodes = nodes;
    cfg.nodesPerRack = std::min<std::uint32_t>(16, nodes);
    cfg.numSpines = 16;
    return cfg;
}

GatherRunResult
ClusterSim::runGather(const Csr &m, const Partition1D &part,
                      std::uint32_t k)
{
    ns_assert(m.rows == m.cols, "distributed kernels use square matrices");
    ns_assert(part.numParts() == cfg_.numNodes,
              "partition has ", part.numParts(), " parts for ",
              cfg_.numNodes, " nodes");
    // Slice the per-node row-scan streams out of the global matrix;
    // the workload overload is the real entry point (paper-scale runs
    // reach it without ever holding a global matrix).
    GatherWorkload work;
    work.numIdxs = m.cols;
    work.part = part;
    work.streams.reserve(cfg_.numNodes);
    for (NodeId nid = 0; nid < cfg_.numNodes; ++nid)
        work.streams.emplace_back(
            m.colIdx.begin() + m.rowPtr[part.begin(nid)],
            m.colIdx.begin() + m.rowPtr[part.end(nid)]);
    return runGather(std::move(work), k);
}

GatherRunResult
ClusterSim::runGather(GatherWorkload &&work, std::uint32_t k)
{
    // The single-job cluster is the degenerate schedule: one tenant,
    // no background traffic. The scheduler takes the exact legacy
    // construction path for it (runtime/job_scheduler.hh), so the
    // result and every observability document are unchanged.
    JobScheduler sched(cfg_);
    std::vector<JobSpec> jobs(1);
    jobs[0].work = std::move(work);
    jobs[0].k = k;
    MultiJobResult mr = sched.run(std::move(jobs));
    return std::move(mr.jobs[0]);
}

void
GatherRunResult::exportStats(StatRegistry &reg) const
{
    reg.set("cluster.commTicks", static_cast<double>(commTicks));
    reg.set("cluster.tailNode", static_cast<double>(tailNode));
    reg.set("cluster.totalWireBytes",
            static_cast<double>(totalWireBytes));
    reg.set("cluster.avgPrsPerPacket", avgPrsPerPacket);
    reg.set("cluster.cacheLookups", static_cast<double>(cacheLookups));
    reg.set("cluster.cacheHits", static_cast<double>(cacheHits));
    reg.set("cluster.cacheHitRate", cacheHitRate());
    reg.set("cluster.prsServedByCache",
            static_cast<double>(prsServedByCache));
    reg.set("cluster.tailGoodput", tailGoodput);
    reg.set("cluster.tailLineUtil", tailLineUtil);

    // Resilience keys, gated on their subsystems so a lossless,
    // retry-off run exports the exact pre-resilience document.
    if (recoveryEnabled) {
        const std::pair<const char *, std::uint64_t NodeRunStats::*>
            recovery[] = {
                {"retransmits", &NodeRunStats::retransmits},
                {"nacks", &NodeRunStats::nacks},
                {"corruptDropped", &NodeRunStats::corruptDropped},
                {"duplicatesSuppressed", &NodeRunStats::duplicatesSuppressed},
                {"retriesExhausted", &NodeRunStats::retriesExhausted},
                {"watchdogFailures", &NodeRunStats::watchdogFailures},
                {"commandRetries", &NodeRunStats::commandRetries},
                {"permanentFailures", &NodeRunStats::permanentFailures},
            };
        for (const auto &[name, field] : recovery)
            reg.set(std::string("cluster.recovery.") + name,
                    static_cast<double>(sumNodes(field)));
        reg.set("cluster.recovery.cachePoisonRejected",
                static_cast<double>(cachePoisonRejected));
        reg.set("cluster.recovery.cacheBypasses",
                static_cast<double>(cacheBypasses));
    }
    if (faultsEnabled) {
        reg.set("cluster.faults.packetsDropped",
                static_cast<double>(packetsDropped));
        reg.set("cluster.faults.corruptedPrs",
                static_cast<double>(corruptedPrs));
        reg.set("cluster.faults.linkDownDrops",
                static_cast<double>(linkDownDrops));
        reg.set("cluster.faults.linkDownTicks",
                static_cast<double>(linkDownTicks));
        reg.set("cluster.faults.degradedTicks",
                static_cast<double>(degradedTicks));
    }

    double prs = 0, filtered = 0, coalesced = 0, idxs = 0;
    for (std::size_t n = 0; n < nodes.size(); ++n) {
        const NodeRunStats &st = nodes[n];
        std::string prefix = "node" + std::to_string(n) + ".";
        reg.set(prefix + "finishTicks",
                static_cast<double>(st.finishTick));
        reg.set(prefix + "prsIssued", static_cast<double>(st.prsIssued));
        reg.set(prefix + "filtered", static_cast<double>(st.filtered));
        reg.set(prefix + "coalesced", static_cast<double>(st.coalesced));
        reg.set(prefix + "fcRate", st.fcRate());
        reg.set(prefix + "rxBytes", static_cast<double>(st.rxBytes));
        reg.set(prefix + "rxPackets", static_cast<double>(st.rxPackets));
        prs += static_cast<double>(st.prsIssued);
        filtered += static_cast<double>(st.filtered);
        coalesced += static_cast<double>(st.coalesced);
        idxs += static_cast<double>(st.idxsProcessed);
    }
    reg.set("cluster.prsIssued", prs);
    reg.set("cluster.filtered", filtered);
    reg.set("cluster.coalesced", coalesced);
    reg.set("cluster.idxsProcessed", idxs);

    // Distribution of node finish times (load imbalance, Figure 19).
    reg.setHistogram("cluster.finishTimeNs", finishTimeHistogram());
}

Histogram
GatherRunResult::finishTimeHistogram() const
{
    Histogram finish(0.0, ticks::toNs(commTicks) + 1.0, 20);
    for (const auto &st : nodes)
        finish.sample(ticks::toNs(st.finishTick));
    return finish;
}

} // namespace netsparse
