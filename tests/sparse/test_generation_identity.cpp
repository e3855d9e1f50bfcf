/**
 * @file
 * Parallel generation is byte-identical to sequential generation
 * (sparse/row_blocks.hh): makeMatrix, makeBenchmarkMatrix and
 * buildPartitionedMatrix give exactly the rows of a one-row-at-a-time
 * RowEmitter loop at every worker count and chunk size, and the
 * benchmark matrices' contents are pinned by committed digests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/rng.hh"
#include "sparse/generators.hh"
#include "sparse/row_blocks.hh"
#include "sparse/stream_gen.hh"

using namespace netsparse;

namespace {

/** A matrix's rows as CSR arrays, from a sequential RowEmitter loop. */
struct SequentialRows
{
    std::vector<std::uint64_t> rowPtr{0};
    std::vector<std::uint32_t> cols;
};

SequentialRows
sequentialRows(const GeneratorParams &p)
{
    RowEmitter gen(p);
    SequentialRows out;
    for (std::uint32_t r = 0; r < gen.rows(); ++r) {
        gen.emitRow(r, out.cols);
        out.rowPtr.push_back(out.cols.size());
    }
    return out;
}

/**
 * Every generator family at a size with row counts not divisible by
 * most worker counts, plus tiny instances with fewer rows than workers.
 */
std::vector<std::pair<std::string, GeneratorParams>>
paramSets()
{
    std::vector<std::pair<std::string, GeneratorParams>> sets;
    for (MatrixKind kind : allMatrixKinds())
        sets.emplace_back(matrixName(kind), benchmarkParams(kind, 0.005));
    WebCrawlParams web;
    web.rows = 5;
    web.regionWidth = 2;
    sets.emplace_back("web-5", web);
    RoadNetworkParams road;
    road.rows = 3;
    sets.emplace_back("road-3", road);
    BandedFemParams fem;
    fem.rows = 3;
    fem.band = 1;
    fem.deg = 4;
    sets.emplace_back("fem-3", fem);
    StokesLikeParams stokes;
    stokes.rows = 6;
    stokes.band = 1;
    stokes.couplingJitter = 1;
    sets.emplace_back("stokes-6", stokes);
    return sets;
}

const unsigned kWorkerCounts[] = {0, 1, 2, 3, 7};

/** Order-sensitive 64-bit digest of a CSR matrix. */
std::uint64_t
digest(const Csr &m)
{
    std::uint64_t h = 0;
    auto mix = [&](std::uint64_t v) { h = splitmix64(h ^ v); };
    mix(m.rows);
    mix(m.cols);
    for (std::uint64_t v : m.rowPtr)
        mix(v);
    for (std::uint32_t v : m.colIdx)
        mix(v);
    return h;
}

} // namespace

TEST(GenerationIdentity, MakeMatrixMatchesSequentialRows)
{
    for (const auto &[name, p] : paramSets()) {
        SequentialRows ref = sequentialRows(p);
        std::vector<std::uint32_t> ref_rows;
        for (std::uint32_t r = 0; r + 1 < ref.rowPtr.size(); ++r)
            ref_rows.insert(ref_rows.end(),
                            ref.rowPtr[r + 1] - ref.rowPtr[r], r);
        for (unsigned w : kWorkerCounts) {
            Coo m = makeMatrix(p, w);
            EXPECT_EQ(m.rows, ref.rowPtr.size() - 1) << name << " w" << w;
            EXPECT_EQ(m.rowIdx, ref_rows) << name << " w" << w;
            EXPECT_EQ(m.colIdx, ref.cols) << name << " w" << w;
        }
    }
}

TEST(GenerationIdentity, BenchmarkMatrixMatchesSequentialRows)
{
    for (MatrixKind kind : allMatrixKinds()) {
        SequentialRows ref = sequentialRows(benchmarkParams(kind, 0.005));
        for (unsigned w : kWorkerCounts) {
            Csr m = makeBenchmarkMatrix(kind, 0.005, w);
            EXPECT_EQ(m.rowPtr, ref.rowPtr) << matrixName(kind) << " w" << w;
            EXPECT_EQ(m.colIdx, ref.cols) << matrixName(kind) << " w" << w;
        }
    }
}

TEST(GenerationIdentity, PartitionedMatrixMatchesSequentialRows)
{
    for (const auto &[name, p] : paramSets()) {
        SequentialRows ref = sequentialRows(p);
        const auto rows = static_cast<std::uint32_t>(ref.rowPtr.size() - 1);
        const std::uint32_t nodes = std::min<std::uint32_t>(rows, 8);
        for (std::uint32_t chunk : {1u, 97u, 1000u, 1u << 16}) {
            for (unsigned w : kWorkerCounts) {
                PartitionedMatrix pm =
                    buildPartitionedMatrix(p, nodes, chunk, w);
                SequentialRows got;
                for (const NodeCsr &n : pm.nodes) {
                    for (std::uint32_t i = 0; i < n.numRows(); ++i)
                        got.rowPtr.push_back(got.rowPtr.back() +
                                             n.rowPtr[i + 1] - n.rowPtr[i]);
                    got.cols.insert(got.cols.end(), n.colIdx.begin(),
                                    n.colIdx.end());
                }
                EXPECT_EQ(pm.nnz, ref.cols.size());
                EXPECT_EQ(got.rowPtr, ref.rowPtr)
                    << name << " chunk " << chunk << " w" << w;
                EXPECT_EQ(got.cols, ref.cols)
                    << name << " chunk " << chunk << " w" << w;
            }
        }
    }
}

TEST(GenerationIdentity, RowBlocksSplitAnyRangeInRowOrder)
{
    const GeneratorParams p = benchmarkParams(MatrixKind::Uk, 0.005);
    RowEmitter gen(p);
    SequentialRows ref = sequentialRows(p);
    const std::uint32_t ranges[][2] = {
        {0, gen.rows()}, {1, gen.rows() - 1}, {100, 105}, {7, 8}, {9, 9}};
    for (const auto &range : ranges) {
        for (unsigned w : kWorkerCounts) {
            std::vector<RowBlock> blocks =
                emitRowBlocks(gen, range[0], range[1], w);
            if (w > 0) {
                EXPECT_EQ(blocks.size(),
                          std::min<std::uint32_t>(
                              w, std::max<std::uint32_t>(
                                     1, range[1] - range[0])));
            }
            std::uint32_t next = range[0];
            consumeRowBlocks(
                blocks, range[0],
                [&](std::uint32_t r, std::span<const std::uint32_t> cols) {
                    ASSERT_EQ(r, next++);
                    std::vector<std::uint32_t> want(
                        ref.cols.begin() + ref.rowPtr[r],
                        ref.cols.begin() + ref.rowPtr[r + 1]);
                    EXPECT_EQ(std::vector<std::uint32_t>(cols.begin(),
                                                         cols.end()),
                              want)
                        << "row " << r << " w" << w;
                });
            EXPECT_EQ(next, range[1]);
            for (const RowBlock &b : blocks)
                EXPECT_TRUE(b.cols.empty() && b.degrees.empty());
        }
    }
}

TEST(GenerationIdentity, BenchmarkMatricesKeepTheirDigests)
{
    // Digests of the generator output before rows were generated in
    // parallel; any change to what a generator emits fails here.
    const std::pair<MatrixKind, std::uint64_t> expected[] = {
        {MatrixKind::Arabic, 0xc276869c6bad21f3ull},
        {MatrixKind::Europe, 0xcd2b4baeb19f1785ull},
        {MatrixKind::Queen, 0x947c9a6c7b959fa7ull},
        {MatrixKind::Stokes, 0x8792d08e4c15ed74ull},
        {MatrixKind::Uk, 0x992921d004788192ull},
    };
    for (const auto &[kind, want] : expected)
        EXPECT_EQ(digest(makeBenchmarkMatrix(kind, 0.02)), want)
            << matrixName(kind);
}
