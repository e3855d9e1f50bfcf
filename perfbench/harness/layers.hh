/**
 * @file
 * Host ns/op of single layers, timed through each component's public
 * API and fed with a workload's own idx streams, plus the fixed host
 * calibration kernel that makes numbers from different hosts
 * comparable.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <map>
#include <string>

#include "measure.hh"
#include "workloads.hh"

namespace perfbench {

/**
 * ns/op of each layer microbench, keyed by metric name
 * ("sparse.owner_of_ns", "snic.idx_filter_probe_ns",
 * "snic.pending_table_ns", "concat.push_ns", "cache.lookup_insert_ns",
 * "sim.event_queue_ns"), each the median of several repetitions.
 */
std::map<std::string, double> layerMicrobenches(const Workload &w,
                                                SpanRecorder &rec);

/** The fixed calibration kernel's parts, in ns. */
struct Calibration
{
    double eventChainNs = 0; // ns per self-scheduled event
    double ownerOfNs = 0;    // ns per uniform-partition ownerOf
    double total() const { return eventChainNs + ownerOfNs; }
};

/** Run the calibration kernel (inputs independent of any workload). */
Calibration calibrate();

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
