/** @file Unit and property tests for the synthetic matrix generators. */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "sparse/generators.hh"

using namespace netsparse;

namespace {

/** Mean nonzeros per row. */
double
avgDegree(const Csr &m)
{
    return static_cast<double>(m.nnz()) / m.rows;
}

} // namespace

TEST(Generators, WebCrawlShapeAndDeterminism)
{
    WebCrawlParams p;
    p.rows = 1 << 13;
    p.avgDeg = 12.0;
    Coo a = makeWebCrawl(p);
    Coo b = makeWebCrawl(p);
    a.validate();
    EXPECT_EQ(a.rowIdx, b.rowIdx);
    EXPECT_EQ(a.colIdx, b.colIdx);
    EXPECT_EQ(a.rows, p.rows);

    p.seed += 1;
    Coo c = makeWebCrawl(p);
    EXPECT_NE(a.colIdx, c.colIdx);
}

TEST(Generators, WebCrawlDegreeNearTarget)
{
    WebCrawlParams p;
    p.rows = 1 << 14;
    p.avgDeg = 20.0;
    Csr m = Csr::fromCoo(makeWebCrawl(p));
    EXPECT_NEAR(avgDegree(m), 20.0, 5.0);
}

TEST(Generators, WebCrawlHasPopularColumns)
{
    WebCrawlParams p;
    p.rows = 1 << 14;
    Csr m = Csr::fromCoo(makeWebCrawl(p));
    // Count the most popular column via the transpose.
    Csr t = m.transposed();
    std::uint64_t max_indeg = 0;
    for (std::uint32_t c = 0; c < t.rows; ++c)
        max_indeg = std::max(max_indeg, t.rowDegree(c));
    // Power-law reuse: the hottest column is far above the average.
    EXPECT_GT(max_indeg, 50 * static_cast<std::uint64_t>(avgDegree(m)));
}

TEST(Generators, WebCrawlRejectsRegionWidthsOutsideTheRows)
{
    // Region bases are drawn modulo rows - regionWidth: equal values
    // divided by zero, and a wider region or a zero width wrapped the
    // unsigned arithmetic into column indices past the last row.
    WebCrawlParams p;
    p.rows = 64;
    p.regionWidth = 64;
    EXPECT_THROW(RowEmitter{p}, std::logic_error);
    p.regionWidth = 65;
    EXPECT_THROW(RowEmitter{p}, std::logic_error);
    p.regionWidth = 0;
    EXPECT_THROW(RowEmitter{p}, std::logic_error);
    p.regionWidth = 63;
    EXPECT_NO_THROW(makeWebCrawl(p).validate());
}

TEST(Generators, RoadNetworkIsSparseAndNearDiagonal)
{
    RoadNetworkParams p;
    p.rows = 1 << 14;
    Coo coo = makeRoadNetwork(p);
    coo.validate();
    Csr m = Csr::fromCoo(coo);
    EXPECT_GT(avgDegree(m), 1.0);
    EXPECT_LT(avgDegree(m), 4.0);

    std::uint32_t width = static_cast<std::uint32_t>(
        std::sqrt(double(p.rows)));
    std::uint64_t near = 0;
    for (std::size_t i = 0; i < coo.nnz(); ++i) {
        std::int64_t d = std::int64_t(coo.colIdx[i]) - coo.rowIdx[i];
        if (std::llabs(d) <= width + 4)
            ++near;
    }
    // Most edges are chain or cross-street edges.
    EXPECT_GT(static_cast<double>(near) / coo.nnz(), 0.9);
}

TEST(Generators, BandedFemRespectsTheBand)
{
    BandedFemParams p;
    p.rows = 1 << 13;
    p.band = 64;
    p.deg = 30;
    Coo coo = makeBandedFem(p);
    coo.validate();
    for (std::size_t i = 0; i < coo.nnz(); ++i) {
        std::int64_t d = std::int64_t(coo.colIdx[i]) - coo.rowIdx[i];
        EXPECT_LE(std::llabs(d), 2 * p.band); // reflection can double
    }
    EXPECT_NEAR(avgDegree(Csr::fromCoo(coo)), p.deg, 1.0);
}

TEST(Generators, BandedFemHasDiagonal)
{
    BandedFemParams p;
    p.rows = 1024;
    Csr m = Csr::fromCoo(makeBandedFem(p));
    for (std::uint32_t r = 100; r < 110; ++r) {
        bool diag = false;
        for (auto c : m.rowCols(r))
            diag |= c == r;
        EXPECT_TRUE(diag) << "row " << r;
    }
}

TEST(Generators, StokesHasFarCouplingBlock)
{
    StokesLikeParams p;
    p.rows = 1 << 14;
    Coo coo = makeStokesLike(p);
    coo.validate();
    std::uint64_t far = 0;
    for (std::size_t i = 0; i < coo.nnz(); ++i) {
        std::int64_t d = std::llabs(std::int64_t(coo.colIdx[i]) -
                                    coo.rowIdx[i]);
        if (d > p.rows / 4)
            ++far;
    }
    double frac = static_cast<double>(far) / coo.nnz();
    EXPECT_NEAR(frac, p.pCoupled, 0.08);
}

TEST(Generators, SuiteHasFiveNamedMatrices)
{
    auto suite = benchmarkSuite(0.05);
    ASSERT_EQ(suite.size(), 5u);
    EXPECT_EQ(suite[0].name, "arabic");
    EXPECT_EQ(suite[1].name, "europe");
    EXPECT_EQ(suite[2].name, "queen");
    EXPECT_EQ(suite[3].name, "stokes");
    EXPECT_EQ(suite[4].name, "uk");
    for (auto &bm : suite) {
        bm.matrix.validate();
        EXPECT_EQ(bm.matrix.rows, bm.matrix.cols);
        EXPECT_GT(bm.matrix.nnz(), 0u);
    }
}

TEST(Generators, ScaleGrowsTheMatrix)
{
    Csr small = makeBenchmarkMatrix(MatrixKind::Uk, 0.05);
    Csr big = makeBenchmarkMatrix(MatrixKind::Uk, 0.1);
    EXPECT_GT(big.rows, small.rows);
    EXPECT_GT(big.nnz(), small.nnz());
}

/** Property sweep: every kind builds a valid square matrix. */
class GeneratorKindTest : public ::testing::TestWithParam<MatrixKind>
{};

TEST_P(GeneratorKindTest, ProducesValidSquareMatrix)
{
    Csr m = makeBenchmarkMatrix(GetParam(), 0.05);
    m.validate();
    EXPECT_EQ(m.rows, m.cols);
    EXPECT_GT(m.nnz(), m.rows / 2);
    // Deterministic.
    Csr m2 = makeBenchmarkMatrix(GetParam(), 0.05);
    EXPECT_EQ(m.colIdx, m2.colIdx);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, GeneratorKindTest,
    ::testing::ValuesIn(allMatrixKinds()),
    [](const auto &info) { return matrixName(info.param); });
