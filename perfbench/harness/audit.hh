/**
 * @file
 * The benchmark's outside-the-product audit of a gather result: the
 * conservation invariants of checkInvariants in
 * tests/integration/test_gather.cpp, checked on every simulation call.
 * A call with any violation counts as failed.
 */

#ifndef PERFBENCH_AUDIT_HH
#define PERFBENCH_AUDIT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/cluster.hh"
#include "runtime/job_scheduler.hh"

namespace perfbench {

/**
 * Violations of one single-tenant gather; empty means it passed.
 *
 * Per node: idxs processed = stream length; local + filtered +
 * coalesced + issued = processed; responses = issued (up to the
 * discarded responses of resent PRs under the reliable-PR layer); no
 * watchdog
 * failures; finish <= commTicks. Cluster-wide: server reads +
 * cache-served = issued (up to the resent reads when the reliable-PR
 * layer runs), and commTicks = the tail node's finish time.
 */
std::vector<std::string>
auditGather(const netsparse::GatherRunResult &r,
            const std::vector<std::uint64_t> &streamLen);

/**
 * Violations of a multi-tenant run: every job's per-node invariants
 * and tail time, the fabric-wide read/cache balance over all tenants,
 * and makespan = the slowest job's commTicks.
 */
std::vector<std::string>
auditMultiJob(const netsparse::MultiJobResult &mr,
              const std::vector<std::vector<std::uint64_t>> &streamLen);

/**
 * Mutate passing results one invariant at a time and confirm the audit
 * flags each mutation: a lossless single-tenant gather for the exact
 * checks, and a lossy multi-tenant run (which must have resent PRs) for
 * the issued..issued+resent ranges and the makespan check. Returns the
 * number of mutations missed.
 */
int auditSelfTest(
    const netsparse::GatherRunResult &lossless,
    const std::vector<std::uint64_t> &streamLen,
    const netsparse::MultiJobResult &lossy,
    const std::vector<std::vector<std::uint64_t>> &lossyStreamLen);

} // namespace perfbench

#endif // PERFBENCH_AUDIT_HH
