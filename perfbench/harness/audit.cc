#include "audit.hh"

#include <algorithm>
#include <functional>
#include <string>

namespace perfbench {

using namespace netsparse;

namespace {

/** Fabric-wide PR totals the read/cache balance is checked on. */
struct Totals
{
    std::uint64_t issued = 0, reads = 0, resent = 0;
};

/** Per-node checks plus the tail-time check; accumulates @p t. */
void
auditNodes(const GatherRunResult &r,
           const std::vector<std::uint64_t> &streamLen,
           const std::string &who, std::vector<std::string> &out,
           Totals &t)
{
    auto fail = [&](const std::string &what) {
        out.push_back(who + what);
    };
    if (r.nodes.size() != streamLen.size()) {
        fail("node count " + std::to_string(r.nodes.size()) + " != " +
             std::to_string(streamLen.size()));
        return;
    }
    for (std::size_t n = 0; n < r.nodes.size(); ++n) {
        const NodeRunStats &st = r.nodes[n];
        std::string node = "node" + std::to_string(n) + ": ";
        if (st.idxsProcessed != streamLen[n])
            fail(node + "processed " + std::to_string(st.idxsProcessed) +
                 " of " + std::to_string(streamLen[n]) + " idxs");
        if (st.localIdxs + st.filtered + st.coalesced + st.prsIssued !=
            st.idxsProcessed)
            fail(node + "local+filtered+coalesced+issued != processed");
        // Every issued PR got exactly one response. The reliable-PR
        // layer also receives the responses of resent PRs: it discards
        // them as duplicates or corrupt copies, or as stale once the
        // command is done (all 0 lossless).
        std::uint64_t resent = st.retransmits + st.nacks;
        std::uint64_t extra = st.rxResponses - st.duplicatesSuppressed -
                              st.corruptDropped - st.prsIssued;
        if (st.rxResponses < st.prsIssued + st.duplicatesSuppressed +
                                 st.corruptDropped ||
            extra > resent)
            fail(node + "responses " + std::to_string(st.rxResponses) +
                 " do not match issued " + std::to_string(st.prsIssued) +
                 " (resent " + std::to_string(resent) + ")");
        if (st.watchdogFailures != 0)
            fail(node + std::to_string(st.watchdogFailures) +
                 " watchdog failures");
        if (st.finishTick > r.commTicks)
            fail(node + "finished after commTicks");
        t.issued += st.prsIssued;
        t.reads += st.rxReads;
        t.resent += st.retransmits + st.nacks;
    }
    if (r.commTicks == 0)
        fail("commTicks is 0");
    if (r.tailNode >= r.nodes.size() ||
        r.nodes[r.tailNode].finishTick != r.commTicks)
        fail("commTicks != tail node finish time");
}

/**
 * Every issued read reached a server SNIC or was served by a ToR cache.
 * Lossless, each did so exactly once. With the reliable-PR layer a
 * read is sent again on a retransmit or a NACK refetch, and a copy
 * that is dropped on the wire reaches neither, so the count lies
 * between issued and issued + resent.
 */
void
auditReadBalance(const Totals &t, std::uint64_t served,
                 std::vector<std::string> &out)
{
    std::uint64_t arrived = t.reads + served;
    if (arrived < t.issued || arrived > t.issued + t.resent)
        out.push_back("server reads " + std::to_string(t.reads) +
                      " + cache-served " + std::to_string(served) +
                      " outside [issued " + std::to_string(t.issued) +
                      ", issued + resent " + std::to_string(t.resent) +
                      "]");
}

} // namespace

std::vector<std::string>
auditGather(const GatherRunResult &r,
            const std::vector<std::uint64_t> &streamLen)
{
    std::vector<std::string> out;
    Totals t;
    auditNodes(r, streamLen, "", out, t);
    auditReadBalance(t, r.prsServedByCache, out);
    return out;
}

std::vector<std::string>
auditMultiJob(const MultiJobResult &mr,
              const std::vector<std::vector<std::uint64_t>> &streamLen)
{
    std::vector<std::string> out;
    if (mr.jobs.size() != streamLen.size()) {
        out.push_back("job count mismatch");
        return out;
    }
    Totals t;
    Tick slowest = 0;
    for (std::size_t j = 0; j < mr.jobs.size(); ++j) {
        auditNodes(mr.jobs[j], streamLen[j],
                   "job" + std::to_string(j) + " ", out, t);
        slowest = std::max(slowest, mr.jobs[j].commTicks);
    }
    auditReadBalance(t, mr.prsServedByCache, out);
    if (mr.makespanTicks != slowest)
        out.push_back("makespan != slowest job's commTicks");
    return out;
}

int
auditSelfTest(const GatherRunResult &lossless,
              const std::vector<std::uint64_t> &streamLen,
              const MultiJobResult &lossy,
              const std::vector<std::vector<std::uint64_t>> &lossyStreamLen)
{
    if (!auditGather(lossless, streamLen).empty() ||
        !auditMultiJob(lossy, lossyStreamLen).empty())
        return 1;
    const std::vector<std::function<void(GatherRunResult &)>> mutations = {
        [](GatherRunResult &r) { ++r.nodes[0].idxsProcessed; },
        [](GatherRunResult &r) { ++r.nodes[0].filtered; },
        [](GatherRunResult &r) { ++r.nodes[0].rxResponses; },
        [](GatherRunResult &r) { r.nodes[0].watchdogFailures = 1; },
        [](GatherRunResult &r) { ++r.prsServedByCache; },
        [](GatherRunResult &r) { ++r.commTicks; },
    };
    int missed = 0;
    for (const auto &mutate : mutations) {
        GatherRunResult bad = lossless;
        mutate(bad);
        if (auditGather(bad, streamLen).empty())
            ++missed;
    }

    // The lossy run must exercise the ranges: some PR was resent.
    std::uint64_t resent = 0;
    for (const GatherRunResult &j : lossy.jobs)
        for (const NodeRunStats &st : j.nodes)
            resent += st.retransmits + st.nacks;
    if (resent == 0)
        return missed + 1;
    const std::vector<std::function<void(MultiJobResult &)>> lossyMutations =
        {
            // One more response than issued + resent on a resending node.
            [&](MultiJobResult &r) {
                for (GatherRunResult &j : r.jobs)
                    for (NodeRunStats &st : j.nodes)
                        if (st.retransmits + st.nacks)
                            st.rxResponses += st.retransmits + st.nacks + 1;
            },
            // Reads + cache-served above issued + resent, then below
            // issued.
            [&](MultiJobResult &r) { r.prsServedByCache += resent + 1; },
            [&](MultiJobResult &r) {
                r.prsServedByCache = 0;
                for (GatherRunResult &j : r.jobs)
                    for (NodeRunStats &st : j.nodes)
                        st.rxReads = 0;
            },
            // Makespan off the slowest job: the fastest job's time.
            [](MultiJobResult &r) {
                Tick fastest = r.makespanTicks;
                for (const GatherRunResult &j : r.jobs)
                    fastest = std::min(fastest, j.commTicks);
                r.makespanTicks =
                    fastest < r.makespanTicks ? fastest : fastest - 1;
            },
            [](MultiJobResult &r) { ++r.makespanTicks; },
        };
    for (const auto &mutate : lossyMutations) {
        MultiJobResult bad = lossy;
        mutate(bad);
        if (auditMultiJob(bad, lossyStreamLen).empty())
            ++missed;
    }
    return missed;
}

} // namespace perfbench
