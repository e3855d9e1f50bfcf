/**
 * @file
 * perfbench_harness: runs one benchmark workload against the netsparse
 * library and prints its metrics.
 *
 *   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
 *                    [--spans-out FILE] [--git-describe STR]
 *                    [--tiny] [--shards N]
 *   perfbench_harness --audit-selftest
 *
 * A run sets the workload up at least kMinSetups times and until
 * kSetupSeconds have passed (setup_s is the median),
 * makes one untimed warm-up pass that also collects the stats document
 * (its digest is printed, so two builds can be compared for identical
 * simulated behaviour), then repeats timed passes for --seconds. Every
 * simulation call is audited, and every pass must reproduce the
 * warm-up's simulated time and event count exactly; a call that fails
 * either check counts as failed. Every set-up and pass is bracketed by
 * batches of the reference kernel (ReferenceClock); the end-to-end host
 * times are medians of samples brought to reference speed.
 *
 * --trace 0 reports the end-to-end metrics. --trace 1 alternates
 * traced and untraced passes, times the cluster build and the layer
 * microbenches, and reports the per-layer metrics, including the
 * tracing overhead and each span's self time per set-up, per cluster
 * build or per traced pass. The last stdout line is
 * one JSON object: {"correct", "attempted", "failed", "metrics"}.
 *
 * --tiny shrinks every workload to a seconds-scale smoke size and
 * --shards overrides the shard count (both for the benchmark's tests).
 */

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/json_lite.hh"
#include "audit.hh"
#include "layers.hh"
#include "measure.hh"
#include "reference.hh"
#include "sim/stats_export.hh"
#include "workloads.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

/** Untraced passes a run always times, however short --seconds is. */
constexpr std::size_t kMinPasses = 2;
/**
 * Set-ups per run: at least kMinSetups, more while they have taken less
 * than kSetupSeconds, at most kMaxSetups. setup_s and the sparse.*
 * set-up times are medians, so a cheap set-up gets more samples.
 */
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 15;
constexpr double kSetupSeconds = 2.0;
/** Empty-stream cluster builds per traced run (runtime.build_s). */
constexpr int kBuilds = 5;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;
    std::uint32_t shards = 0;
    std::string spansOut;
    std::string gitDescribe = "unknown";
    bool auditSelfTest = false;
};

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_harness: %s\nusage: perfbench_harness "
                 "--workload NAME --seed N --seconds S --trace 0|1 "
                 "[--spans-out FILE] [--git-describe STR] [--tiny] "
                 "[--shards N] | --audit-selftest\n",
                 msg);
    return 2;
}

bool
parseUint(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos ||
        s.size() > 19)
        return false;
    out = std::strtoull(s.c_str(), nullptr, 10);
    return true;
}

/** Parses argv into @p a; returns an error message or empty. */
std::string
parseArgs(int argc, char **argv, Args &a)
{
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--tiny") {
            a.tiny = true;
            continue;
        }
        if (flag == "--audit-selftest") {
            a.auditSelfTest = true;
            continue;
        }
        if (i + 1 >= argc)
            return flag + " needs a value";
        std::string v = argv[++i];
        std::uint64_t n = 0;
        if (flag == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (flag == "--seed") {
            if (!parseUint(v, a.seed))
                return "--seed must be a non-negative integer";
        } else if (flag == "--seconds") {
            if (!parseUint(v, n) || n < 1 || n > 600)
                return "--seconds must be an integer in [1, 600]";
            a.seconds = static_cast<double>(n);
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                return "--trace must be 0 or 1";
            a.trace = v == "1";
        } else if (flag == "--shards") {
            if (!parseUint(v, n) || n < 1 || n > 64)
                return "--shards must be an integer in [1, 64]";
            a.shards = static_cast<std::uint32_t>(n);
        } else if (flag == "--spans-out") {
            a.spansOut = v;
        } else if (flag == "--git-describe") {
            a.gitDescribe = v;
        } else {
            return "unknown flag " + flag;
        }
    }
    if (!have_workload && !a.auditSelfTest)
        return "--workload is required";
    return {};
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Mean concatenator PR wait in the stats document, in microseconds. */
double
meanPrWaitUs(const std::string &doc)
{
    double sum = 0, count = 0;
    jsonlite::Value v = jsonlite::parse(doc);
    for (const jsonlite::Value &run : v.at("runs").array) {
        for (const auto &[name, stat] : run.at("stats").object) {
            if (name.size() < 11 ||
                name.compare(name.size() - 11, 11, "prWaitTicks") != 0)
                continue;
            sum += stat.at("sum").number;
            count += stat.at("count").number;
        }
    }
    return count > 0 ? sum / count / 1e6 : 0.0; // ticks are ps
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
jsonString(const std::string &s)
{
    return "\"" + jsonEscape(s) + "\"";
}

std::string
jsonNumber(double v)
{
    std::ostringstream os;
    writeJsonNumber(os, std::isfinite(v) ? v : 0.0);
    return os.str();
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

int
runAuditSelfTest()
{
    SpanRecorder off;
    WorkloadSpec spec;
    workloadSpec("gather-canonical", true, 1, spec);
    Workload w(spec, 0);
    w.setup(off);
    const Input &in = w.inputs().front();
    GatherRunResult r = ClusterSim(w.clusterConfig(4))
                            .runGather(in.matrix, in.part, kPropertyWidth);

    workloadSpec("multi-tenant-lossy", true, 1, spec);
    Workload lossy(spec, 0);
    lossy.setup(off);
    MultiJobResult mr = lossy.runJobs(lossy.jobSpecs());
    std::vector<std::vector<std::uint64_t>> lens;
    for (const Input &j : lossy.inputs())
        lens.push_back(j.streamLen);

    int missed = auditSelfTest(r, in.streamLen, mr, lens);
    std::printf("audit self-test: %d mutation(s) missed\n", missed);
    return missed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (std::string err = parseArgs(argc, argv, a); !err.empty())
        return usage(err.c_str());
    if (a.auditSelfTest)
        return runAuditSelfTest();
    WorkloadSpec spec;
    if (!workloadSpec(a.workload, a.tiny, a.shards, spec))
        return usage(("unknown workload " + a.workload).c_str());

    SpanRecorder rec, off;
    rec.enable(a.trace);
    const Calibration cal = calibrate();
    Workload w(spec, a.seed);

    // Set-ups generate on one thread; a pass runs one thread per shard.
    ReferenceKernel reference(spec.shards);
    std::vector<double> setups, setup_gen, setup_part;
    std::uint64_t nnz = 0;
    const double setup_start = wallNow();
    ReferenceClock setup_clock(reference, 1);
    while (setups.size() < kMinSetups ||
           (setups.size() < kMaxSetups &&
            wallNow() - setup_start < kSetupSeconds)) {
        SetupTimes t = w.setup(rec);
        setups.push_back(t.total * setup_clock.scale());
        setup_gen.push_back(t.generate);
        setup_part.push_back(t.partition);
        nnz = t.nnz;
    }

    // Warm-up pass: untimed, collects the stats document.
    StatsExport collector;
    collector.setCollect(true);
    PassResult warm;
    {
        StatsExport::Bind bind(collector);
        warm = w.pass(off);
    }
    const std::string doc = collector.toJson();
    std::uint64_t attempted = warm.calls, failed = warm.failedCalls;
    std::vector<std::string> violations = warm.violations;

    // Host times of each pass: raw wall, and wall and CPU at reference
    // speed.
    std::vector<double> raw_walls, walls, cpus, traced_walls;
    ReferenceClock pass_clock(reference, spec.shards);
    const double t0 = wallNow();
    for (std::size_t i = 0;
         walls.size() < kMinPasses || wallNow() - t0 < a.seconds; ++i) {
        bool traced = a.trace && i % 2 == 1;
        PassResult p = w.pass(traced ? rec : off);
        attempted += p.calls;
        failed += p.failedCalls;
        violations.insert(violations.end(), p.violations.begin(),
                          p.violations.end());
        if (p.failedCalls == 0 && (p.counts.comm != warm.counts.comm ||
                                   p.counts.events != warm.counts.events)) {
            failed += p.calls;
            violations.push_back("pass " + std::to_string(i) +
                                 " is not deterministic");
        }
        const double scale = pass_clock.scale();
        if (traced) {
            traced_walls.push_back(p.wall * scale);
        } else {
            raw_walls.push_back(p.wall);
            walls.push_back(p.wall * scale);
            cpus.push_back(p.cpu * scale);
        }
    }

    const double wall = median(walls), cpu = median(cpus);
    const SimCounts &c = warm.counts;
    std::vector<Metric> metrics;
    if (!a.trace) {
        metrics = {
            {"setup_s", median(setups), "s"},
            {"sim_wall_s", wall, "s"},
            {"sim_cpu_s", cpu, "cpu_s"},
            {"events_per_s", ratio(c.events, wall), "events/s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"sim_comm_us", ticks::toNs(c.comm) / 1e3, "sim_us"},
            {"pass_rate", ratio(attempted - failed, attempted), "ratio"},
        };
    } else {
        std::vector<double> builds;
        for (int i = 0; i < kBuilds; ++i)
            builds.push_back(w.buildOnly(rec));
        std::map<std::string, double> micro = layerMicrobenches(w, rec);
        // Each name's spans come from one phase with a fixed count of
        // calls (set-ups, builds) or from the traced passes, whose count
        // depends on --seconds: report self time per call or per pass.
        std::map<std::string, double> self = rec.selfTimes();
        const double traced = static_cast<double>(traced_walls.size());
        const double setup_count = static_cast<double>(setups.size());
        metrics = {
            {"sparse.gen_s", median(setup_gen), "s"},
            {"sparse.gen_ns_per_nnz", ratio(median(setup_gen) * 1e9, nnz),
             "ns/nnz"},
            {"sparse.partition_s", median(setup_part), "s"},
            {"sparse.owner_of_ns", micro["sparse.owner_of_ns"], "ns/op"},
            {"snic.idx_filter_probe_ns", micro["snic.idx_filter_probe_ns"],
             "ns/op"},
            {"snic.pending_table_ns", micro["snic.pending_table_ns"],
             "ns/op"},
            {"concat.push_ns", micro["concat.push_ns"], "ns/op"},
            {"cache.lookup_insert_ns", micro["cache.lookup_insert_ns"],
             "ns/op"},
            {"sim.events", static_cast<double>(c.events), "count"},
            {"sim.ns_per_event", ratio(wall * 1e9, c.events), "ns/event"},
            {"sim.event_queue_ns", micro["sim.event_queue_ns"], "ns/event"},
            {"sim.epochs", static_cast<double>(c.epochs), "count"},
            {"sim.cpu_wall_ratio", ratio(cpu, wall), "ratio"},
            {"runtime.build_s", median(builds), "s"},
            {"snic.prs_issued", static_cast<double>(c.prsIssued), "count"},
            {"snic.fc_rate", ratio(c.filteredCoalesced, c.remoteIdxs),
             "ratio"},
            {"snic.pending_stalls", static_cast<double>(c.pendingStalls),
             "count"},
            {"snic.tx_stalls", static_cast<double>(c.txStalls), "count"},
            {"snic.server_reads", static_cast<double>(c.serverReads),
             "count"},
            {"concat.prs_per_packet",
             ratio(c.prsPerPacketWeighted, c.rxPackets), "ratio"},
            {"concat.pr_wait_us", meanPrWaitUs(doc), "sim_us"},
            {"net.wire_mb", c.wireBytes / 1e6, "sim_MB"},
            {"net.tail_goodput", ratio(c.tailGoodputSum, c.gathers),
             "ratio"},
            {"cache.hit_rate", ratio(c.cacheHits, c.cacheLookups), "ratio"},
            {"cache.prs_served", static_cast<double>(c.cacheServed),
             "count"},
            {"snic.retransmits", static_cast<double>(c.retransmits),
             "count"},
            {"snic.nacks", static_cast<double>(c.nacks), "count"},
            {"snic.retries_exhausted",
             static_cast<double>(c.retriesExhausted), "count"},
            {"net.packets_dropped", static_cast<double>(c.packetsDropped),
             "count"},
            {"net.background_delivered_frac",
             ratio(c.bgDelivered, c.bgPackets), "ratio"},
            {"host.calibration_ns", cal.total(), "ns"},
            {"trace.overhead_s", median(traced_walls) - wall, "s"},
            {"trace.self_s.generate", self["generate"] / setup_count,
             "s/setup"},
            {"trace.self_s.partition", self["partition"] / setup_count,
             "s/setup"},
            {"trace.self_s.run", ratio(self["run"], traced), "s/pass"},
            {"trace.self_s.suopt", ratio(self["suopt"], traced), "s/pass"},
            {"trace.self_s.compose", ratio(self["compose"], traced),
             "s/pass"},
            {"trace.self_s.build", self["build"] / kBuilds, "s/build"},
        };
        if (!a.spansOut.empty() && !rec.writeJson(a.spansOut))
            std::fprintf(stderr, "warn: cannot write %s\n",
                         a.spansOut.c_str());
    }

    std::printf("workload: %s seed %" PRIu64 " (%s)\n", spec.name.c_str(),
                a.seed, a.trace ? "traced" : "untraced");
    std::printf("provenance: {\"compiler\": %s, \"build_type\": %s, "
                "\"nproc\": %u, \"cpu_model\": %s, \"git_describe\": %s, "
                "\"shards\": %u, \"calibration_ns\": %s, "
                "\"calibration_event_chain_ns\": %s, "
                "\"calibration_owner_of_ns\": %s}\n",
                jsonString(std::string("gcc ") + __VERSION__).c_str(),
                jsonString(PERFBENCH_BUILD_TYPE).c_str(),
                std::thread::hardware_concurrency(),
                jsonString(cpuModel()).c_str(),
                jsonString(a.gitDescribe).c_str(), warm.shards,
                jsonNumber(cal.total()).c_str(),
                jsonNumber(cal.eventChainNs).c_str(),
                jsonNumber(cal.ownerOfNs).c_str());
    std::printf("stats_digest: %016" PRIx64 " (%zu bytes)\n", fnv1a(doc),
                doc.size());
    std::printf("timed passes: %zu untraced, %zu traced; sim_wall_s = "
                "median of %zu passes at reference speed; raw untraced "
                "pass walls (median %.4f):",
                walls.size(), traced_walls.size(), walls.size(),
                median(raw_walls));
    for (double s : raw_walls)
        std::printf(" %.4f", s);
    std::printf("\nreference batches (s; %.4f at reference speed): pass "
                "median %.4f, set-up median %.4f, checksum %016" PRIx64
                "\n",
                kReferenceBatchS, median(pass_clock.batches()),
                median(setup_clock.batches()), reference.checksum());
    std::printf("fail_rate: %s (%" PRIu64 " of %" PRIu64 " calls)\n",
                jsonNumber(ratio(failed, attempted)).c_str(), failed,
                attempted);
    for (std::size_t i = 0; i < violations.size() && i < 20; ++i)
        std::printf("violation: %s\n", violations[i].c_str());
    for (const Metric &m : metrics)
        std::printf("metric %-32s %s %s\n", m.name.c_str(),
                    jsonNumber(m.value).c_str(), m.unit.c_str());

    std::string out = "{\"correct\": ";
    out += failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            out += ", ";
        out += jsonString(metrics[i].name) + ": {\"value\": " +
               jsonNumber(metrics[i].value) +
               ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return 0;
}
