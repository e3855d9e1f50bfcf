#include "runtime/job_scheduler.hh"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "runtime/shard_map.hh"
#include "sim/arena.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/shard_engine.hh"
#include "sim/span.hh"
#include "sim/stats_export.hh"
#include "sim/telemetry.hh"
#include "sim/trace.hh"

namespace netsparse {

namespace {

/**
 * Per-node tenant demultiplexer: the sink of a host's downlink when
 * more than one virtual SNIC slice (or background traffic) shares the
 * node. Protocol packets dispatch to their tenant's slice in place (no
 * extra event, so packet timing matches the single-tenant sink); raw
 * background packets terminate here - they are pure load and carry
 * nothing deliverable.
 */
class TenantDemux : public PacketSink
{
  public:
    void attach(Snic *slice) { slices_.push_back(slice); }

    void
    receivePacket(Packet &&pkt, std::uint32_t in_port) override
    {
        if (pkt.raw) {
            ++rawPackets_;
            rawBytes_ += pkt.wireBytes;
            return;
        }
        ns_assert(pkt.tenant < slices_.size(),
                  "packet for unknown tenant ", pkt.tenant);
        slices_[pkt.tenant]->receivePacket(std::move(pkt), in_port);
    }

    std::uint64_t rawPackets() const { return rawPackets_; }
    std::uint64_t rawBytes() const { return rawBytes_; }

  private:
    std::vector<Snic *> slices_;
    std::uint64_t rawPackets_ = 0;
    std::uint64_t rawBytes_ = 0;
};

/**
 * The per-tenant SLO document ("cluster.tenant<t>.*",
 * docs/observability.md): completion, goodput and work counters for
 * one job, keyed so concurrent jobs never collide in the registry.
 */
void
exportTenantStats(StatRegistry &reg, const std::string &prefix,
                  const GatherRunResult &r, Tick start_delay)
{
    reg.set(prefix + ".commTicks", static_cast<double>(r.commTicks));
    Tick duration =
        r.commTicks > start_delay ? r.commTicks - start_delay : 0;
    reg.set(prefix + ".durationTicks", static_cast<double>(duration));
    reg.set(prefix + ".startDelayTicks",
            static_cast<double>(start_delay));
    reg.set(prefix + ".tailNode", static_cast<double>(r.tailNode));
    reg.set(prefix + ".avgPrsPerPacket", r.avgPrsPerPacket);
    reg.set(prefix + ".prsServedByCache",
            static_cast<double>(r.prsServedByCache));
    reg.set(prefix + ".tailGoodput", r.tailGoodput);
    reg.set(prefix + ".tailLineUtil", r.tailLineUtil);
    const std::pair<const char *, std::uint64_t NodeRunStats::*> sums[] = {
        {"prsIssued", &NodeRunStats::prsIssued},
        {"filtered", &NodeRunStats::filtered},
        {"coalesced", &NodeRunStats::coalesced},
        {"idxsProcessed", &NodeRunStats::idxsProcessed},
        {"rxBytes", &NodeRunStats::rxBytes},
        {"rxPayloadBytes", &NodeRunStats::rxPayloadBytes},
        {"rxPackets", &NodeRunStats::rxPackets},
    };
    for (const auto &[name, field] : sums)
        reg.set(prefix + "." + name, static_cast<double>(r.sumNodes(field)));
    reg.setHistogram(prefix + ".finishTimeNs", r.finishTimeHistogram());
}

Topology
makeTopology(const ClusterConfig &cfg)
{
    switch (cfg.topology) {
      case TopologyKind::LeafSpine: {
        std::uint32_t racks =
            (cfg.numNodes + cfg.nodesPerRack - 1) / cfg.nodesPerRack;
        return Topology::leafSpine(racks, cfg.nodesPerRack, cfg.numSpines);
      }
      case TopologyKind::HyperX:
        // 4x4x2 switches, 4 hosts each, width-4 trunks (Section 9.6)
        ns_assert(cfg.numNodes == 128,
                  "the HyperX configuration is 128 nodes");
        return Topology::hyperX(4, 4, 2, 4, 4);
      case TopologyKind::Dragonfly:
        ns_assert(cfg.numNodes == 128,
                  "the Dragonfly configuration is 128 nodes");
        return Topology::dragonfly(4, 8, 4, 4);
    }
    ns_panic("unknown topology kind");
}

/** A cross-shard delivery channel; padded, its neighbors belong to
 *  other threads. */
struct alignas(64) PaddedMailbox
{
    DeliveryMailbox box;
};

/**
 * Every component of one run, wired and ready to dispatch. The
 * constructor is the build phase; JobScheduler::run owns the value and
 * drives the run, merge and collect phases on it. Built in place and
 * never moved: routing closures and links point into it.
 *
 * Construction order is part of the determinism contract: links take
 * their ordering ids, and components their span and telemetry order
 * keys, in the order the build steps create them.
 */
struct BuiltCluster
{
    BuiltCluster(const ClusterConfig &cfg, std::vector<JobSpec> &&jobs,
                 const BackgroundTrafficConfig &bg);
    BuiltCluster(const BuiltCluster &) = delete;
    BuiltCluster &operator=(const BuiltCluster &) = delete;

    // Build steps the constructor runs, in this order.
    void buildSnics();
    void buildSwitches();
    /** Links and shard mailboxes, then routes and per-kernel setup. */
    void buildLinks();
    void nameSpanComponents();
    void registerTelemetry();

    // The phases after the build.
    ShardEngine::Result run();
    void merge(Tick final_tick);
    MultiJobResult collect(const ShardEngine::Result &e) const;
    void exportSnapshot(const MultiJobResult &mr,
                        const ShardEngine::Result &e) const;

    /** Copy the engine outcome into a job or the multi-job result. */
    template <typename Result>
    void
    record(Result &r, const ShardEngine::Result &e) const
    {
        r.executedEvents = e.executedEvents;
        r.finalTick = e.finalTick;
        r.simShards = shardMap.numShards;
        r.lookaheadTicks = shardMap.numShards > 1 ? lookahead : 0;
        r.epochs = e.epochs;
    }
    EventQueue &
    nodeQueue(NodeId n) const
    {
        return *queues[shardMap.shardOfNode(n)];
    }
    /** Tenant @p t's slice of node @p nid (slices are nid-major). */
    Snic &
    snicAt(NodeId nid, std::uint32_t t) const
    {
        return *snics[std::size_t{nid} * T + t];
    }
    /** "node<n>.<leaf>", or "node<n>.job<t>.<leaf>" with shared nodes. */
    std::string
    sliceName(NodeId nid, std::uint32_t t, const char *leaf) const
    {
        std::string node = "node" + std::to_string(nid);
        return multi ? node + ".job" + std::to_string(t) + "." + leaf
                     : node + "." + leaf;
    }

    const ClusterConfig &cfg;
    std::vector<JobSpec> jobs;
    const BackgroundTrafficConfig bg;
    /** Tenants (jobs). */
    const std::uint32_t T;
    /** False for the legacy cluster (one job, no background traffic):
     *  its names and stats document are the single-job ones. */
    const bool multi;
    const Topology topo;
    ShardMap shardMap;
    std::vector<std::unique_ptr<EventQueue>> queues;

    /** An enabled sink arms span tracing and interval telemetry. */
    const bool spansOn;
    const bool telemetryOn;
    SpanParams spanParams;
    std::vector<std::unique_ptr<SpanBuffer>> spanBufs;
    /** Span component names, indexed by span component id. */
    std::vector<std::string> spanComps;

    std::vector<std::unique_ptr<Snic>> snics;
    bool recoveryEnabled = false;
    std::vector<std::unique_ptr<TenantDemux>> demuxes;
    std::vector<std::unique_ptr<Switch>> switches;
    /** Stats/telemetry identity of each switch ("tor<i>"/"spine<j>"). */
    std::vector<std::string> switchNames;

    std::vector<std::vector<PaddedMailbox>> mailboxes;
    Tick lookahead = maxTick;
    std::vector<std::unique_ptr<Link>> links;
    /** The shard of each link's sender (which drives and samples it). */
    std::vector<std::uint32_t> linkShards;
    std::vector<Link *> nicEgress;

    std::vector<std::unique_ptr<HostNode>> hosts;
    std::vector<std::unique_ptr<BackgroundSource>> bgSources;
    std::vector<std::unique_ptr<TelemetryProbe>> probes;
};

BuiltCluster::BuiltCluster(const ClusterConfig &cfg_in,
                           std::vector<JobSpec> &&jobs_in,
                           const BackgroundTrafficConfig &bg_in)
    : cfg(cfg_in), jobs(std::move(jobs_in)), bg(bg_in),
      T(static_cast<std::uint32_t>(jobs.size())),
      multi(T > 1 || bg.enabled()), topo(makeTopology(cfg)),
      spansOn(SpanSink::instance().enabled()),
      // Interval telemetry and the PR latency lifecycle share one gate:
      // both cost nothing (no collectors, no stamping, a dead probe
      // branch in the dispatch loop) unless the sink is enabled.
      telemetryOn(TelemetrySink::instance().enabled() &&
                  cfg.telemetryInterval > 0)
{
    ns_assert(T >= 1, "the scheduler needs at least one job");
    for (std::uint32_t t = 0; t < T; ++t) {
        const JobSpec &job = jobs[t];
        ns_assert(job.work.part.numParts() == cfg.numNodes,
                  "job ", t, ": partition has ",
                  job.work.part.numParts(), " parts for ", cfg.numNodes,
                  " nodes");
        ns_assert(job.work.streams.size() == cfg.numNodes,
                  "job ", t, ": workload has ", job.work.streams.size(),
                  " streams for ", cfg.numNodes, " nodes");
        ns_assert(job.work.numIdxs >= job.work.part.total(),
                  "job ", t, ": property space smaller than the "
                  "partition");
        // The tenant id salts checksums and cache keys above bit 40.
        ns_assert(T == 1 || job.work.numIdxs <= (1ull << 40),
                  "job ", t, ": property space too large for "
                  "tenant-qualified keys");
        ns_assert(job.k >= 1, "job ", t, ": k must be positive");
    }
    ns_assert(topo.numNodes() == cfg.numNodes, "topology node mismatch");

    // Rack-granular partition: a ToR plus its rack's hosts and SNICs
    // share one queue; a zero-latency link would leave no lookahead,
    // so such configurations fall back to a single shard.
    std::uint32_t shard_request =
        resolveShardCount(cfg.simShards, topo.numTors());
    if (cfg.link.latency == 0)
        shard_request = 1;
    shardMap = ShardMap::build(topo, shard_request);
    for (std::uint32_t s = 0; s < shardMap.numShards; ++s)
        queues.push_back(std::make_unique<EventQueue>());
    // Span tracing (sim/span.hh): one recorder per shard, reached
    // through the shard's own queue. An enabled sink with all-zero
    // params (the NETSPARSE_SPANS_OUT env path, where nothing touches
    // ClusterConfig) falls back to the representative 1/64 sample,
    // matching the CLI default.
    spanParams = cfg.spans;
    if (spansOn && !spanParams.enabled())
        spanParams.sampleEvery = 64;
    for (std::uint32_t s = 0; spansOn && s < shardMap.numShards; ++s) {
        spanBufs.push_back(std::make_unique<SpanBuffer>(spanParams));
        queues[s]->setSpanBuffer(spanBufs.back().get());
    }

    buildSnics();
    buildSwitches();
    buildLinks();
    if (spansOn)
        nameSpanComponents();
    // One host per (node, tenant), admitted at its job's startDelay.
    for (NodeId nid = 0; nid < cfg.numNodes; ++nid) {
        for (std::uint32_t t = 0; t < T; ++t) {
            hosts.push_back(std::make_unique<HostNode>(
                nodeQueue(nid), cfg.host, snicAt(nid, t),
                std::move(jobs[t].work.streams[nid]), 4 * jobs[t].k));
            // Completion is read off HostNode::done() after the run; a
            // shared counter would be written concurrently from
            // several shards.
            HostNode *h = hosts.back().get();
            if (jobs[t].startDelay == 0)
                h->start([] {});
            else
                nodeQueue(nid).schedule(jobs[t].startDelay,
                                        [h] { h->start([] {}); });
        }
    }
    if (bg.enabled()) {
        for (NodeId nid = 0; nid < cfg.numNodes; ++nid) {
            bgSources.push_back(std::make_unique<BackgroundSource>(
                nodeQueue(nid), bg, nid, cfg.numNodes, *nicEgress[nid]));
            bgSources.back()->start();
        }
    }
    if (telemetryOn)
        registerTelemetry();
}

void
BuiltCluster::buildSnics()
{
    SnicConfig base = cfg.snic;
    base.proto = cfg.proto;
    base.rigUnit.filterEnabled = cfg.features.filter;
    base.rigUnit.coalesceEnabled = cfg.features.coalesce;
    Clock snic_clock(base.rigUnit.clockHz);
    base.concat.proto = cfg.proto;
    base.concat.enabled = cfg.features.concatNic;
    base.concat.delay = snic_clock.cycles(cfg.nicConcatDelayCycles);
    base.concat.virtualized = cfg.virtualizedCqs;
    // A lossy fabric needs the reliable-PR layer to terminate; the
    // user may also enable it explicitly on a lossless one.
    if (cfg.faults.enabled())
        base.rigUnit.retry.enabled = true;
    if (spansOn) {
        base.rigUnit.spanSampleThreshold = spanParams.sampleThreshold();
        base.rigUnit.spanRecordAll = spanParams.recordAll();
        base.rigUnit.spanSeed = spanParams.seed;
    }
    recoveryEnabled = base.rigUnit.retry.enabled;

    // One virtual slice per (node, tenant): each tenant keeps its own
    // RIG units, Idx Filter and retry state; the node's physical NIC
    // egress link is shared (buildLinks).
    snics.reserve(std::size_t{cfg.numNodes} * T);
    for (NodeId nid = 0; nid < cfg.numNodes; ++nid) {
        for (std::uint32_t t = 0; t < T; ++t) {
            SnicConfig sc = base;
            sc.tenant = static_cast<std::uint16_t>(t);
            const Partition1D *jpart = &jobs[t].work.part;
            snics.push_back(std::make_unique<Snic>(
                nodeQueue(nid), sc, nid,
                [jpart](PropIdx idx) {
                    return jpart->ownerOf(
                        static_cast<std::uint32_t>(idx));
                },
                jobs[t].work.numIdxs, sliceName(nid, t, "snic")));
            snics.back()->setOwnerPartition(jobs[t].work.part);
            if (telemetryOn)
                snics.back()->enablePrLatency();
        }
    }

    // Multi-tenant downlinks terminate at a per-node demux.
    if (multi) {
        for (NodeId nid = 0; nid < cfg.numNodes; ++nid) {
            demuxes.push_back(std::make_unique<TenantDemux>());
            for (std::uint32_t t = 0; t < T; ++t)
                demuxes.back()->attach(&snicAt(nid, t));
        }
    }
}

void
BuiltCluster::buildSwitches()
{
    Clock switch_clock(cfg.switchClockHz);
    std::uint32_t tors = 0, spines = 0;
    for (SwitchId sid = 0; sid < topo.numSwitches(); ++sid) {
        SwitchConfig sw_cfg;
        sw_cfg.proto = cfg.proto;
        sw_cfg.pipelineLatency = cfg.switchPipelineLatency;
        sw_cfg.pipeClockHz = cfg.switchClockHz;
        sw_cfg.netsparseEnabled =
            topo.isTor(sid) &&
            (cfg.features.concatSwitch || cfg.features.switchCache);
        sw_cfg.concat.proto = cfg.proto;
        sw_cfg.concat.enabled = cfg.features.concatSwitch;
        sw_cfg.concat.delay =
            switch_clock.cycles(cfg.switchConcatDelayCycles);
        sw_cfg.concat.virtualized = cfg.virtualizedCqs;
        // Concurrent tenants must not share concatenated packets: the
        // destination demux dispatches whole packets by tenant.
        sw_cfg.concat.tenantLanes = T;
        sw_cfg.cache = cfg.cacheGeometry;
        sw_cfg.cache.totalBytes =
            cfg.features.switchCache ? cfg.propertyCacheBytes : 0;
        sw_cfg.cachePerPipe = cfg.cachePerPipe;
        sw_cfg.numTenants = T;
        sw_cfg.tenantCachePartitioned = cfg.tenantCachePartitioned && T > 1;
        sw_cfg.fairQueue = cfg.fairQueue;
        // Corrupt responses must not poison the rack caches.
        sw_cfg.verifyResponses = cfg.faults.enabled();
        switches.push_back(std::make_unique<Switch>(
            *queues[shardMap.shardOfSwitch(sid)], sw_cfg, sid,
            "switch" + std::to_string(sid)));
        // Numbered in construction order, like the stats document.
        switchNames.push_back(topo.isTor(sid)
                                  ? "tor" + std::to_string(tors++)
                                  : "spine" + std::to_string(spines++));
    }
}

void
BuiltCluster::buildLinks()
{
    // One directed link per (switch port, direction) plus one egress
    // link per host NIC. Ordering ids are assigned in construction
    // order - a per-run-deterministic numbering that forms the
    // same-tick arrival tie-break at every sink, which is what keeps
    // execution identical across shard counts.
    //
    // Cross-shard links (always switch-to-switch under the rack
    // partition) deposit deliveries into per-(src, dst) shard
    // mailboxes; their minimum latency is the engine's lookahead.
    mailboxes.resize(shardMap.numShards);
    for (auto &row : mailboxes)
        row = std::vector<PaddedMailbox>(shardMap.numShards);
    auto bind_link = [this](Link &link, std::uint32_t src_shard,
                            std::uint32_t dst_shard, Tick latency) {
        link.setOrderingId(static_cast<std::uint32_t>(linkShards.size()));
        linkShards.push_back(src_shard);
        // The injector keys its fault stream on the ordering id just
        // assigned, so the injected pattern is shard-count-invariant.
        if (cfg.faults.enabled())
            link.configureFaults(cfg.faults);
        if (src_shard != dst_shard) {
            link.setCrossShardOutbox(&mailboxes[src_shard][dst_shard].box);
            lookahead = std::min(lookahead, latency);
        }
    };

    for (SwitchId sid = 0; sid < topo.numSwitches(); ++sid) {
        const auto &ports = topo.ports(sid);
        for (std::uint32_t p = 0; p < ports.size(); ++p) {
            const PortPeer &peer = ports[p];
            LinkConfig lc = cfg.link;
            lc.bandwidth = Bandwidth::fromGBps(
                cfg.link.bandwidth.bytesPerSecond() / 1e9 *
                peer.bwMultiplier);
            PacketSink *sink = nullptr;
            std::uint32_t sink_port = 0;
            std::uint32_t dst_shard = 0;
            const bool to_host = peer.kind == PortPeer::Kind::Host;
            if (to_host) {
                sink = multi ? static_cast<PacketSink *>(
                                   demuxes[peer.id].get())
                             : &snicAt(peer.id, 0);
                dst_shard = shardMap.shardOfNode(peer.id);
                ns_assert(dst_shard == shardMap.shardOfSwitch(sid),
                          "host severed from its ToR by the partition");
            } else {
                sink = switches[peer.id].get();
                sink_port = peer.peerPort;
                dst_shard = shardMap.shardOfSwitch(peer.id);
            }
            links.push_back(std::make_unique<Link>(
                *queues[shardMap.shardOfSwitch(sid)], lc, cfg.proto, sink,
                sink_port, "sw" + std::to_string(sid) + ".p" +
                               std::to_string(p)));
            bind_link(*links.back(), shardMap.shardOfSwitch(sid),
                      dst_shard, lc.latency);
            switches[sid]->attachPort(p, links.back().get(), to_host);
        }
    }
    // Host egress links (NIC -> ToR); always intra-shard. Every tenant
    // slice of a node transmits through the same physical link - its
    // busy-until chain is where the slices contend.
    nicEgress.resize(cfg.numNodes);
    for (NodeId nid = 0; nid < cfg.numNodes; ++nid) {
        SwitchId tor = topo.switchOf(nid);
        links.push_back(std::make_unique<Link>(
            nodeQueue(nid), cfg.link, cfg.proto, switches[tor].get(),
            topo.hostPort(nid), "node" + std::to_string(nid) + ".tx"));
        bind_link(*links.back(), shardMap.shardOfNode(nid),
                  shardMap.shardOfSwitch(tor), cfg.link.latency);
        nicEgress[nid] = links.back().get();
        for (std::uint32_t t = 0; t < T; ++t)
            snicAt(nid, t).attachEgress(links.back().get());
    }
    ns_assert(shardMap.numShards == 1 ||
                  (lookahead > 0 && lookahead != maxTick),
              "multi-shard run without a positive cross-shard latency");

    // Routing and per-kernel configuration. Shared or partitioned, the
    // cache provisions for the widest property in flight (capacity
    // accounting only; checksums are what is stored).
    std::uint32_t max_prop_bytes = 0;
    for (const JobSpec &job : jobs)
        max_prop_bytes = std::max(max_prop_bytes, 4 * job.k);
    for (SwitchId sid = 0; sid < topo.numSwitches(); ++sid) {
        switches[sid]->setRouteFn([this, sid](NodeId dest) {
            return topo.route(sid, dest);
        });
        switches[sid]->configureForKernel(max_prop_bytes);
    }
    for (auto &snic : snics)
        snic->configureForKernel();
}

void
BuiltCluster::nameSpanComponents()
{
    // Span component id space, in cluster construction order: links by
    // ordering id (link.cc records LinkTx under orderingId directly),
    // then switches, then SNIC slices nid-major / tenant-minor. The
    // name table ships inside the spans document so every component id
    // resolves to its stats/telemetry identity.
    spanComps.reserve(links.size() + switches.size() + snics.size());
    for (const auto &l : links)
        spanComps.push_back(l->name());
    for (SwitchId sid = 0; sid < switches.size(); ++sid) {
        switches[sid]->setSpanComp(
            static_cast<std::uint32_t>(spanComps.size()));
        spanComps.push_back(switchNames[sid]);
    }
    for (const auto &sn : snics) {
        sn->setSpanComp(static_cast<std::uint32_t>(spanComps.size()));
        spanComps.push_back(sn->name());
    }
}

void
BuiltCluster::registerTelemetry()
{
    // One probe per shard; every entity is registered on the shard
    // whose events drive its state, under a cluster-wide order key
    // (links by ordering id, then switches, then RIGs, then tenants)
    // so the merged document is independent of the shard count.
    // Samplers read only their own entity, and boundary samples
    // observe exactly the events with tick < boundary
    // (sim/telemetry.hh), so every series is byte-identical at
    // 1/2/4 shards.
    const Tick interval = cfg.telemetryInterval;
    for (const auto &q : queues) {
        probes.push_back(std::make_unique<TelemetryProbe>(interval));
        probes.back()->attachTo(*q);
    }
    const std::size_t num_links = links.size();
    for (std::size_t i = 0; i < num_links; ++i) {
        Link *lk = links[i].get();
        probes[linkShards[i]]->addEntity(
            i, lk->name(), "link", {"utilization", "queuedBytes"},
            [lk, interval, last_busy = Tick{0}](
                Tick boundary, std::vector<double> &out) mutable {
                // Wire time committed this interval over the interval;
                // a burst that books the wire past the boundary can
                // push it above 1 (the backlog then shows up in
                // queuedBytes).
                Tick busy = lk->busyTicks();
                out.push_back(static_cast<double>(busy - last_busy) /
                              static_cast<double>(interval));
                last_busy = busy;
                out.push_back(lk->queuedBytesAt(boundary));
            });
    }
    for (SwitchId sid = 0; sid < topo.numSwitches(); ++sid) {
        Switch *sw = switches[sid].get();
        probes[shardMap.shardOfSwitch(sid)]->addEntity(
            num_links + sid, switchNames[sid], "switch",
            {"outQueueBytes", "cacheHits", "cacheMisses", "cacheInserts"},
            [sw, last_hits = std::uint64_t{0},
             last_lookups = std::uint64_t{0},
             last_inserts = std::uint64_t{0}](
                Tick boundary, std::vector<double> &out) mutable {
                double backlog = 0.0;
                for (const Link *l : sw->outLinks())
                    backlog += l->queuedBytesAt(boundary);
                out.push_back(backlog);
                std::uint64_t hits = sw->cacheHits();
                std::uint64_t lookups = sw->cacheLookups();
                std::uint64_t inserts = sw->cacheInserts();
                out.push_back(static_cast<double>(hits - last_hits));
                out.push_back(static_cast<double>(
                    (lookups - last_lookups) - (hits - last_hits)));
                out.push_back(static_cast<double>(inserts - last_inserts));
                last_hits = hits;
                last_lookups = lookups;
                last_inserts = inserts;
            });
    }
    const std::size_t rig_base = num_links + topo.numSwitches();
    for (NodeId nid = 0; nid < cfg.numNodes; ++nid) {
        for (std::uint32_t t = 0; t < T; ++t) {
            Snic *sn = &snicAt(nid, t);
            probes[shardMap.shardOfNode(nid)]->addEntity(
                rig_base + std::size_t{nid} * T + t,
                sliceName(nid, t, "rig"), "rig",
                {"inflightPrs", "retransmits"},
                [sn, last_retx = std::uint64_t{0}](
                    Tick, std::vector<double> &out) mutable {
                    out.push_back(static_cast<double>(sn->inflightPrs()));
                    std::uint64_t retx = sn->totalRetransmits();
                    out.push_back(static_cast<double>(retx - last_retx));
                    last_retx = retx;
                });
        }
    }
    if (!multi)
        return;
    // Cluster-wide per-tenant series. Each shard samples its own slice
    // of the tenant (its nodes' virtual SNICs) under the tenant's
    // shared order key; buildTelemetryRun sums same-key slices, so the
    // published series is the cluster-wide sum regardless of how nodes
    // landed on shards.
    const std::size_t tenant_base = rig_base + std::size_t{cfg.numNodes} * T;
    for (std::uint32_t s = 0; s < shardMap.numShards; ++s) {
        for (std::uint32_t t = 0; t < T; ++t) {
            std::vector<Snic *> slice;
            for (NodeId nid = 0; nid < cfg.numNodes; ++nid)
                if (shardMap.shardOfNode(nid) == s)
                    slice.push_back(&snicAt(nid, t));
            if (slice.empty())
                continue;
            probes[s]->addEntity(
                tenant_base + t, "tenant" + std::to_string(t), "tenant",
                {"inflightPrs", "rxPayloadBytes"},
                [slice = std::move(slice), last_payload = std::uint64_t{0}](
                    Tick, std::vector<double> &out) mutable {
                    std::uint64_t inflight = 0, payload = 0;
                    for (const Snic *sn : slice) {
                        inflight += sn->inflightPrs();
                        payload += sn->rxPayloadBytes();
                    }
                    out.push_back(static_cast<double>(inflight));
                    out.push_back(static_cast<double>(payload - last_payload));
                    last_payload = payload;
                });
        }
    }
}


ShardEngine::Result
BuiltCluster::run()
{
    std::vector<ShardEngine::Shard> shards(queues.size());
    for (std::size_t d = 0; d < shards.size(); ++d) {
        shards[d].eq = queues[d].get();
        // Drain inbound mailboxes in fixed source order; the banded
        // delivery keys then restore the canonical event order inside
        // the destination queue.
        shards[d].drainInbox = [this, d] {
            for (auto &row : mailboxes)
                drainDeliveries(row[d].box, *queues[d]);
        };
    }
    ShardEngine::Result e =
        ShardEngine::run(std::move(shards), lookahead, cfg.maxSimTime);
    // The run has drained: every buffer is back in its pool. Total the
    // pools and free them (a one-shard run's live on this thread).
    e.memory.add(drainThreadArenas());

    std::size_t done_count = 0;
    for (const auto &h : hosts)
        done_count += h->done() ? 1 : 0;
    if (done_count != hosts.size()) {
        ns_fatal("gather deadlocked or exceeded the simulation cap: ",
                 done_count, "/", hosts.size(), " hosts finished by ",
                 ticks::toNs(e.finalTick), " ns");
    }
    return e;
}

void
BuiltCluster::merge(Tick final_tick)
{
    if (spansOn) {
        std::vector<SpanBuffer *> bufs;
        for (auto &b : spanBufs)
            bufs.push_back(b.get());
        SpanRun &srun = SpanSink::instance().beginRun();
        srun.params = spanParams;
        srun.finalTick = final_tick;
        srun.components = std::move(spanComps);
        buildSpanRun(srun, bufs);
        // Also render the kept spans as Perfetto async spans when a
        // trace is being captured alongside.
        if (NS_TRACE_ON())
            exportSpansToTrace(TraceWriter::instance(), srun);
    }
    if (telemetryOn) {
        std::vector<TelemetryProbe *> shard_probes;
        for (auto &p : probes)
            shard_probes.push_back(p.get());
        buildTelemetryRun(TelemetrySink::instance().beginRun(),
                          shard_probes, final_tick);
    }
}

MultiJobResult
BuiltCluster::collect(const ShardEngine::Result &e) const
{
    MultiJobResult mr;
    record(mr, e);
    mr.jobs.resize(T);
    for (std::uint32_t t = 0; t < T; ++t) {
        GatherRunResult &r = mr.jobs[t];
        record(r, e);
        r.nodes.resize(cfg.numNodes);
        std::uint64_t rx_prs = 0, rx_packets = 0;
        for (NodeId nid = 0; nid < cfg.numNodes; ++nid) {
            NodeRunStats &st = r.nodes[nid];
            const HostNode &host = *hosts[std::size_t{nid} * T + t];
            const Snic &sn = snicAt(nid, t);
            st.finishTick = host.finishTick();
            RigClientStats cs = sn.aggregateClientStats();
            st.idxsProcessed = cs.idxsProcessed;
            st.localIdxs = cs.localIdxs;
            st.prsIssued = cs.prsIssued;
            st.filtered = cs.filtered;
            st.coalesced = cs.coalesced;
            st.watchdogFailures = cs.watchdogFailures;
            st.pendingStalls = cs.pendingStalls;
            st.txStalls = cs.txStalls;
            st.commandsIssued = host.commandsIssued();
            st.retransmits = cs.retransmits;
            st.nacks = cs.nacks;
            st.corruptDropped = cs.corruptDropped;
            st.duplicatesSuppressed = cs.duplicatesSuppressed;
            st.retriesExhausted = cs.retriesExhausted;
            st.commandRetries = host.commandRetries();
            st.permanentFailures = host.permanentFailures();
            st.rxPackets = sn.rxPackets();
            st.rxBytes = sn.rxBytes();
            st.rxPayloadBytes = sn.rxPayloadBytes();
            st.rxResponses = sn.rxResponses();
            st.rxReads = sn.rxReads();
            rx_prs += st.rxResponses + st.rxReads;
            rx_packets += st.rxPackets;
            if (st.finishTick > r.commTicks) {
                r.commTicks = st.finishTick;
                r.tailNode = nid;
            }
        }
        r.recoveryEnabled = recoveryEnabled;
        r.faultsEnabled = cfg.faults.enabled();
        r.avgPrsPerPacket =
            rx_packets ? static_cast<double>(rx_prs) / rx_packets : 0.0;
        if (T > 1)
            for (const auto &sw : switches)
                r.prsServedByCache += sw->prsServedByCache(t);
        // The SLO denominator is the job's own active span: admission
        // (startDelay) to its tail node's completion. With one job at
        // t0 this is exactly the legacy commTicks window.
        const Tick start = jobs[t].startDelay;
        const Tick duration = r.commTicks > start ? r.commTicks - start : 0;
        if (duration > 0) {
            double line_bpp = cfg.link.bandwidth.bytesPerPs();
            const NodeRunStats &tail = r.tail();
            r.tailLineUtil = static_cast<double>(tail.rxBytes) /
                             (static_cast<double>(duration) * line_bpp);
            r.tailGoodput = static_cast<double>(tail.rxPayloadBytes) /
                            (static_cast<double>(duration) * line_bpp);
        }
        mr.makespanTicks = std::max(mr.makespanTicks, r.commTicks);
    }
    for (const auto &l : links) {
        mr.totalWireBytes += l->bytesSent();
        mr.packetsDropped += l->packetsDropped();
    }
    for (const auto &sw : switches) {
        mr.cacheLookups += sw->cacheLookups();
        mr.cacheHits += sw->cacheHits();
        mr.prsServedByCache += sw->prsServedByCache();
    }
    for (const auto &src : bgSources) {
        mr.backgroundPackets += src->packetsInjected();
        mr.backgroundBytes += src->bytesInjected();
    }
    for (const auto &d : demuxes) {
        mr.backgroundDelivered += d->rawPackets();
        mr.backgroundDeliveredBytes += d->rawBytes();
    }
    if (!multi) {
        // The legacy single-job result carries the fabric-wide totals
        // itself (shared-fabric splits are well defined with one
        // tenant).
        GatherRunResult &r = mr.jobs[0];
        r.totalWireBytes = mr.totalWireBytes;
        r.packetsDropped = mr.packetsDropped;
        r.cacheLookups = mr.cacheLookups;
        r.cacheHits = mr.cacheHits;
        r.prsServedByCache = mr.prsServedByCache;
        for (const auto &l : links) {
            if (const LinkFaultInjector *fi = l->faults()) {
                r.corruptedPrs += fi->stats().corruptedPrs;
                r.linkDownDrops += fi->stats().linkDownDrops;
                r.linkDownTicks += fi->stats().linkDownTicks;
                r.degradedTicks += fi->stats().degradedTicks;
            }
        }
        for (const auto &sw : switches) {
            r.cachePoisonRejected += sw->poisonRejected();
            r.cacheBypasses += sw->cacheBypasses();
        }
    }
    return mr;
}

void
BuiltCluster::exportSnapshot(const MultiJobResult &mr,
                             const ShardEngine::Result &e) const
{
    // Deposited while the components are still alive, so the snapshot
    // carries per-RIG-unit, per-concatenator and per-switch-cache
    // counters that GatherRunResult does not retain.
    StatRegistry &reg = StatsExport::instance().beginRun();
    if (!multi) {
        // The legacy single-job document, byte for byte.
        mr.jobs[0].exportStats(reg);
    } else {
        reg.set("cluster.jobs", static_cast<double>(T));
        reg.set("cluster.makespanTicks",
                static_cast<double>(mr.makespanTicks));
        reg.set("cluster.totalWireBytes",
                static_cast<double>(mr.totalWireBytes));
        reg.set("cluster.cacheLookups", static_cast<double>(mr.cacheLookups));
        reg.set("cluster.cacheHits", static_cast<double>(mr.cacheHits));
        reg.set("cluster.prsServedByCache",
                static_cast<double>(mr.prsServedByCache));
        for (std::uint32_t t = 0; t < T; ++t)
            exportTenantStats(reg, "cluster.tenant" + std::to_string(t),
                              mr.jobs[t], jobs[t].startDelay);
        if (bg.enabled()) {
            reg.set("cluster.background.packetsInjected",
                    static_cast<double>(mr.backgroundPackets));
            reg.set("cluster.background.bytesInjected",
                    static_cast<double>(mr.backgroundBytes));
            reg.set("cluster.background.packetsDelivered",
                    static_cast<double>(mr.backgroundDelivered));
            reg.set("cluster.background.bytesDelivered",
                    static_cast<double>(mr.backgroundDeliveredBytes));
        }
    }
    for (NodeId nid = 0; nid < cfg.numNodes; ++nid) {
        for (std::uint32_t t = 0; t < T; ++t)
            snicAt(nid, t).exportStats(reg, snicAt(nid, t).name());
        const std::string node = "node" + std::to_string(nid);
        const Link *tx = nicEgress[nid];
        reg.set(node + ".tx.packets", static_cast<double>(tx->packetsSent()));
        reg.set(node + ".tx.bytes", static_cast<double>(tx->bytesSent()));
        reg.set(node + ".tx.payloadBytes",
                static_cast<double>(tx->payloadBytesSent()));
        reg.set(node + ".tx.busyTicks", static_cast<double>(tx->busyTicks()));
        reg.set(node + ".tx.utilization", tx->utilization());
    }
    for (SwitchId sid = 0; sid < topo.numSwitches(); ++sid)
        switches[sid]->exportStats(reg, switchNames[sid]);
    reg.set("sim.executedEvents", static_cast<double>(e.executedEvents));
    reg.set("sim.finalTick", static_cast<double>(e.finalTick));
    if (telemetryOn) {
        // Cluster-wide PR latency decomposition; per-node averages ride
        // each SNIC's own exportStats above. Gated so the telemetry-off
        // document stays byte-identical.
        for (std::uint32_t t = 0; t < T; ++t) {
            PrLatencyStats agg;
            for (NodeId nid = 0; nid < cfg.numNodes; ++nid)
                agg.merge(*snicAt(nid, t).prLatency());
            agg.exportStats(reg, multi ? "cluster.tenant" +
                                             std::to_string(t) + ".prLatency"
                                       : "cluster.prLatency");
        }
    }
    if (cfg.memoryStats) {
        // This run's arena accounting (sim/arena.hh), summed over its
        // shard workers. Gated: host diagnostics, outside the
        // byte-identical stats contract (see ClusterConfig).
        const ArenaStats &m = e.memory;
        reg.set("cluster.memory.arenaReservedBytes", m.reservedBytes);
        reg.set("cluster.memory.arenaHighWaterBytes", m.highWaterBytes);
        reg.set("cluster.memory.arenaPoolHits", m.poolHits);
        reg.set("cluster.memory.arenaPoolMisses", m.poolMisses);
        reg.set("cluster.memory.arenaPooledBuffers", m.pooledBuffers);
    }
}

} // namespace

JobScheduler::JobScheduler(ClusterConfig cfg) : cfg_(std::move(cfg))
{
    if (cfg_.eventBatching) {
        if (cfg_.link.batchMaxPackets <= 1)
            cfg_.link.batchMaxPackets = 16;
        cfg_.snic.batchedServerReads = true;
    }
    ns_assert(cfg_.numNodes >= 1, "cluster needs nodes");
    ns_assert(!cfg_.features.switchCache || cfg_.features.concatSwitch,
              "the Property Cache lives in the middle pipes; enable "
              "switch concatenation with it");
}

MultiJobResult
JobScheduler::run(std::vector<JobSpec> &&jobs,
                  const BackgroundTrafficConfig &bg)
{
    // Buffer pools live for one run: whatever this thread parked before
    // (a bench's own concatenator, an aborted run) is not this run's.
    drainThreadArenas();
    BuiltCluster cluster(cfg_, std::move(jobs), bg);
    const ShardEngine::Result engine = cluster.run();
    cluster.merge(engine.finalTick);
    MultiJobResult mr = cluster.collect(engine);
    if (StatsExport::instance().enabled())
        cluster.exportSnapshot(mr, engine);
    return mr;
}

} // namespace netsparse
