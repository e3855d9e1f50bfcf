#include "sparse/stream_gen.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sparse/row_blocks.hh"

namespace netsparse {

std::vector<std::vector<std::uint32_t>>
PartitionedMatrix::takeStreams()
{
    std::vector<std::vector<std::uint32_t>> streams;
    streams.reserve(nodes.size());
    for (auto &n : nodes) {
        streams.push_back(std::move(n.colIdx));
        n.rowPtr = {0};
        n.colIdx.clear();
    }
    nodes.clear();
    return streams;
}

PartitionedMatrix
buildPartitionedMatrix(const GeneratorParams &params,
                       std::uint32_t numNodes, std::uint32_t chunkRows,
                       unsigned workers)
{
    ns_assert(numNodes > 0, "need at least one node");
    ns_assert(chunkRows > 0, "chunk must hold at least one row");
    RowEmitter gen(params);
    const std::uint32_t rows = gen.rows();
    ns_assert(rows >= numNodes, "fewer rows than nodes");

    PartitionedMatrix pm;
    pm.rows = pm.cols = rows;
    pm.part = Partition1D::equalRows(rows, numNodes);
    pm.nodes.resize(numNodes);
    for (NodeId n = 0; n < numNodes; ++n) {
        pm.nodes[n].firstRow = pm.part.begin(n);
        pm.nodes[n].rowPtr.reserve(pm.part.size(n) + 1);
        // Row degrees concentrate near the mean; reserving for it
        // avoids most mid-build reallocation without overcommitting.
        pm.nodes[n].colIdx.reserve(static_cast<std::size_t>(
            pm.part.size(n) * std::max(1.0, gen.expectedDegree())));
    }

    // Rows are generated one chunk at a time, split over the workers,
    // so transient memory is one chunk. Chunking only bounds that
    // memory - rows are appended to their owners in global row order
    // regardless, so any chunkRows or worker count yields identical
    // partitions.
    for (std::uint32_t base = 0; base < rows; base += chunkRows) {
        std::uint32_t end = base + std::min(chunkRows, rows - base);
        std::vector<RowBlock> blocks = emitRowBlocks(gen, base, end, workers);
        consumeRowBlocks(
            blocks, base,
            [&](std::uint32_t r, std::span<const std::uint32_t> cols) {
                NodeCsr &dst = pm.nodes[pm.part.ownerOf(r)];
                dst.colIdx.insert(dst.colIdx.end(), cols.begin(),
                                  cols.end());
                dst.rowPtr.push_back(dst.colIdx.size());
                pm.nnz += cols.size();
            });
    }
    for (NodeId n = 0; n < numNodes; ++n)
        ns_assert(pm.nodes[n].numRows() == pm.part.size(n),
                  "node ", n, " row count mismatch");
    return pm;
}

PartitionedMatrix
buildPartitionedBenchmark(MatrixKind kind, double scale,
                          std::uint32_t numNodes, std::uint32_t chunkRows)
{
    return buildPartitionedMatrix(benchmarkParams(kind, scale), numNodes,
                                  chunkRows);
}

double
paperScale(MatrixKind kind)
{
    // Paper Table 1 nnz over the analogue's nnz at scale 1 (the
    // comments in benchmarkParams()).
    switch (kind) {
      case MatrixKind::Arabic: return 640e6 / 3.67e6;
      case MatrixKind::Europe: return 108e6 / 0.55e6;
      case MatrixKind::Queen: return 330e6 / 5.18e6;
      case MatrixKind::Stokes: return 349e6 / 3.05e6;
      case MatrixKind::Uk: return 298e6 / 2.10e6;
    }
    ns_panic("unknown matrix kind");
}

} // namespace netsparse
