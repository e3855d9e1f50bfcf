#include "sparse/generators.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sparse/row_blocks.hh"

namespace netsparse {

namespace {

/** Clamp a signed offset from @p r into [0, rows). */
std::uint32_t
clampedOffset(std::uint32_t r, std::int64_t off, std::uint32_t rows)
{
    std::int64_t c = static_cast<std::int64_t>(r) + off;
    if (c < 0)
        c = -c;
    if (c >= rows)
        c = 2 * static_cast<std::int64_t>(rows) - 2 - c;
    if (c < 0)
        c = 0;
    return static_cast<std::uint32_t>(c);
}

/** A signed geometric offset with mean magnitude ~ @p range, never 0. */
std::int64_t
signedGeometric(Rng &rng, double range)
{
    auto mag = static_cast<std::int64_t>(rng.geometric(range));
    return rng.uniform() < 0.5 ? -mag : mag;
}

/**
 * Independent RNG stream for one row: seed and row are mixed through
 * splitmix64 twice (once here, once in the Rng constructor), so streams
 * for adjacent rows share no structure.
 */
Rng
rowRng(std::uint64_t seed, std::uint32_t r)
{
    return Rng(splitmix64(seed) + r);
}

void
emitWebCrawlRow(const WebCrawlParams &p,
                const std::vector<std::uint32_t> &region_base,
                std::uint32_t r, std::vector<std::uint32_t> &out)
{
    Rng rng = rowRng(p.seed, r);
    auto num_regions = static_cast<std::uint32_t>(region_base.size());
    // Skewed out-degree: mostly small pages, a tail of link farms.
    double mean = rng.uniform() < 0.92 ? p.avgDeg * 0.72 : p.avgDeg * 4.2;
    auto deg = static_cast<std::uint32_t>(rng.geometric(mean));
    bool have_region = false;
    std::uint32_t region = 0;
    for (std::uint32_t k = 0; k < deg; ++k) {
        std::uint32_t c;
        if (rng.uniform() < p.pLocal) {
            c = clampedOffset(r, signedGeometric(rng, p.localRange),
                              p.rows);
        } else {
            // Foreign link: usually keeps pointing at the page's
            // current foreign host; sometimes hops to a new one.
            if (!have_region || rng.uniform() < p.pNewRegion) {
                region = static_cast<std::uint32_t>(
                    rng.zipf(num_regions, p.regionAlpha));
                have_region = true;
            }
            c = region_base[region] +
                static_cast<std::uint32_t>(
                    rng.uniformInt(0, p.regionWidth - 1));
        }
        out.push_back(c);
    }
}

void
emitRoadNetworkRow(const RoadNetworkParams &p, std::uint32_t r,
                   std::vector<std::uint32_t> &out)
{
    Rng rng = rowRng(p.seed, r);
    std::uint32_t width = p.gridWidth;
    if (r > 0 && rng.uniform() < p.pChain)
        out.push_back(r - 1);
    if (r + 1 < p.rows && rng.uniform() < p.pChain)
        out.push_back(r + 1);
    if (rng.uniform() < p.pCross) {
        std::int64_t off = rng.uniform() < 0.5 ? -std::int64_t(width)
                                               : std::int64_t(width);
        // Wiggle so cross edges are not all identical in stride.
        off += static_cast<std::int64_t>(rng.uniformInt(0, 4)) - 2;
        out.push_back(clampedOffset(r, off, p.rows));
    }
    if (rng.uniform() < p.pLong) {
        out.push_back(static_cast<std::uint32_t>(
            rng.uniformInt(0, p.rows - 1)));
    }
}

void
emitBandedFemRow(const BandedFemParams &p, std::uint32_t r,
                 std::vector<std::uint32_t> &out)
{
    Rng rng = rowRng(p.seed, r);
    std::int64_t band = p.band;
    // FEM stencils touch a dense cluster of neighbors inside the band.
    out.push_back(r); // diagonal
    for (std::uint32_t k = 1; k < p.deg; ++k) {
        auto off =
            static_cast<std::int64_t>(rng.uniformInt(0, 2 * band)) - band;
        if (off == 0)
            off = 1;
        out.push_back(clampedOffset(r, off, p.rows));
    }
}

void
emitStokesLikeRow(const StokesLikeParams &p, std::uint32_t r,
                  std::vector<std::uint32_t> &out)
{
    Rng rng = rowRng(p.seed, r);
    std::int64_t band = p.band;
    std::uint32_t half = p.rows / 2;
    out.push_back(r);
    for (std::uint32_t k = 1; k < p.deg; ++k) {
        if (rng.uniform() < p.pCoupled) {
            // Velocity-pressure style coupling: a far block at a fixed
            // stride, with a small jitter window.
            std::uint32_t target = (r + half) % p.rows;
            auto jit = static_cast<std::int64_t>(rng.uniformInt(
                           0, 2 * p.couplingJitter)) -
                       static_cast<std::int64_t>(p.couplingJitter);
            out.push_back(clampedOffset(target, jit, p.rows));
        } else {
            auto off = static_cast<std::int64_t>(
                           rng.uniformInt(0, 2 * band)) -
                       band;
            if (off == 0)
                off = 1;
            out.push_back(clampedOffset(r, off, p.rows));
        }
    }
}

} // namespace

RowEmitter::RowEmitter(const GeneratorParams &gp) : p_(gp)
{
    std::visit(
        [this](auto &p) {
            using T = std::decay_t<decltype(p)>;
            rows_ = p.rows;
            if constexpr (std::is_same_v<T, WebCrawlParams>) {
                ns_assert(p.rows > 1, "web crawl needs at least 2 rows");
                // Regions start in [0, rows - regionWidth) and span
                // regionWidth pages, so both bounds keep links in range.
                ns_assert(p.regionWidth > 0,
                          "web crawl regions need at least 1 page");
                ns_assert(p.regionWidth < p.rows,
                          "web crawl region width ", p.regionWidth,
                          " must be below the row count ", p.rows);
                // Foreign host regions: zipf-popular link-target
                // neighborhoods, scattered across the index space by a
                // hash so popularity is not correlated with the
                // partition that owns the pages.
                if (p.numRegions == 0)
                    p.numRegions =
                        std::max<std::uint32_t>(16, p.rows / 1024);
                regionBase_.resize(p.numRegions);
                for (std::uint32_t h = 0; h < p.numRegions; ++h)
                    regionBase_[h] = static_cast<std::uint32_t>(
                        splitmix64(p.seed ^ (0x9000ull + h)) %
                        (p.rows - p.regionWidth));
            } else if constexpr (std::is_same_v<T, RoadNetworkParams>) {
                ns_assert(p.rows > 1,
                          "road network needs at least 2 rows");
                if (p.gridWidth == 0)
                    p.gridWidth = static_cast<std::uint32_t>(
                        std::sqrt(double(p.rows)));
            } else if constexpr (std::is_same_v<T, BandedFemParams>) {
                ns_assert(p.rows > 2 * p.band,
                          "band wider than the matrix");
            } else {
                ns_assert(p.rows > 4 * p.band,
                          "band wider than the matrix");
            }
        },
        p_);
}

void
RowEmitter::emitRow(std::uint32_t r, std::vector<std::uint32_t> &out) const
{
    ns_assert(r < rows_, "row ", r, " out of range");
    std::visit(
        [&](const auto &p) {
            using T = std::decay_t<decltype(p)>;
            if constexpr (std::is_same_v<T, WebCrawlParams>)
                emitWebCrawlRow(p, regionBase_, r, out);
            else if constexpr (std::is_same_v<T, RoadNetworkParams>)
                emitRoadNetworkRow(p, r, out);
            else if constexpr (std::is_same_v<T, BandedFemParams>)
                emitBandedFemRow(p, r, out);
            else
                emitStokesLikeRow(p, r, out);
        },
        p_);
}

double
RowEmitter::expectedDegree() const
{
    return std::visit(
        [](const auto &p) -> double {
            using T = std::decay_t<decltype(p)>;
            if constexpr (std::is_same_v<T, WebCrawlParams>)
                return p.avgDeg;
            else if constexpr (std::is_same_v<T, RoadNetworkParams>)
                return 2.0 * p.pChain + p.pCross + p.pLong;
            else
                return static_cast<double>(p.deg);
        },
        p_);
}

std::uint32_t
generatorRows(const GeneratorParams &p)
{
    return std::visit([](const auto &g) { return g.rows; }, p);
}

Coo
makeMatrix(const GeneratorParams &gp, unsigned workers)
{
    RowEmitter gen(gp);
    std::vector<RowBlock> blocks =
        emitRowBlocks(gen, 0, gen.rows(), workers);
    std::size_t nnz = 0;
    for (const RowBlock &b : blocks)
        nnz += b.cols.size();
    Coo m;
    m.rows = m.cols = gen.rows();
    m.rowIdx.reserve(nnz);
    m.colIdx.reserve(nnz);
    consumeRowBlocks(
        blocks, 0, [&](std::uint32_t r, std::span<const std::uint32_t> cols) {
            m.rowIdx.insert(m.rowIdx.end(), cols.size(), r);
            m.colIdx.insert(m.colIdx.end(), cols.begin(), cols.end());
        });
    return m;
}

Coo
makeWebCrawl(const WebCrawlParams &p)
{
    return makeMatrix(p);
}

Coo
makeRoadNetwork(const RoadNetworkParams &p)
{
    return makeMatrix(p);
}

Coo
makeBandedFem(const BandedFemParams &p)
{
    return makeMatrix(p);
}

Coo
makeStokesLike(const StokesLikeParams &p)
{
    return makeMatrix(p);
}

const char *
matrixName(MatrixKind kind)
{
    switch (kind) {
      case MatrixKind::Arabic: return "arabic";
      case MatrixKind::Europe: return "europe";
      case MatrixKind::Queen: return "queen";
      case MatrixKind::Stokes: return "stokes";
      case MatrixKind::Uk: return "uk";
    }
    ns_panic("unknown matrix kind");
}

std::vector<MatrixKind>
allMatrixKinds()
{
    return {MatrixKind::Arabic, MatrixKind::Europe, MatrixKind::Queen,
            MatrixKind::Stokes, MatrixKind::Uk};
}

GeneratorParams
benchmarkParams(MatrixKind kind, double scale)
{
    ns_assert(scale > 0.0, "scale must be positive");
    auto scaled = [&](std::uint32_t base) {
        auto r = static_cast<std::uint32_t>(base * scale);
        return std::max<std::uint32_t>(r, 1024);
    };

    switch (kind) {
      case MatrixKind::Arabic: {
        WebCrawlParams p;
        p.rows = scaled(1 << 17); // 128k rows, ~3.6M nnz at scale 1
        p.avgDeg = 28.0;
        p.pLocal = 0.55;
        p.localRange = 150.0;
        p.numRegions = std::max<std::uint32_t>(32, p.rows / 4096);
        p.regionWidth = 16;
        p.regionAlpha = 1.3;
        p.pNewRegion = 0.05;
        return p;
      }
      case MatrixKind::Europe: {
        RoadNetworkParams p;
        p.rows = scaled(1 << 18); // 256k rows, ~550k nnz at scale 1
        p.pLong = 0.012;
        return p;
      }
      case MatrixKind::Queen: {
        BandedFemParams p;
        p.rows = scaled(1 << 16); // 64k rows, ~5.2M nnz at scale 1
        // FEM bandwidth tracks the mesh cross-section, which grows with
        // the problem; keep it about half a 128-node partition's rows.
        p.band = std::max<std::uint32_t>(64, p.rows / 256);
        p.deg = 79;
        return p;
      }
      case MatrixKind::Stokes: {
        StokesLikeParams p;
        p.rows = scaled(3 << 15); // 96k rows, ~3M nnz at scale 1
        // The coupling window scales with the problem cross-section.
        p.couplingJitter = std::max<std::uint32_t>(256, p.rows / 96);
        return p;
      }
      case MatrixKind::Uk: {
        WebCrawlParams p;
        p.rows = scaled(1 << 17); // 128k rows, ~2M nnz at scale 1
        p.avgDeg = 16.0;
        p.pLocal = 0.42;
        p.localRange = 400.0;
        p.numRegions = std::max<std::uint32_t>(64, p.rows / 1024);
        p.regionWidth = 16;
        p.regionAlpha = 1.08;
        p.pNewRegion = 0.20;
        p.seed = 0x00172002;
        return p;
      }
    }
    ns_panic("unknown matrix kind");
}

Csr
makeBenchmarkMatrix(MatrixKind kind, double scale, unsigned workers)
{
    // Rows arrive in order, so the CSR is built directly: the same
    // arrays Csr::fromCoo(makeMatrix(...)) yields, without the COO.
    RowEmitter gen(benchmarkParams(kind, scale));
    std::vector<RowBlock> blocks =
        emitRowBlocks(gen, 0, gen.rows(), workers);
    std::size_t nnz = 0;
    for (const RowBlock &b : blocks)
        nnz += b.cols.size();
    Csr m;
    m.rows = m.cols = gen.rows();
    m.rowPtr.reserve(static_cast<std::size_t>(m.rows) + 1);
    m.rowPtr.push_back(0);
    m.colIdx.reserve(nnz);
    consumeRowBlocks(
        blocks, 0, [&](std::uint32_t, std::span<const std::uint32_t> cols) {
            m.colIdx.insert(m.colIdx.end(), cols.begin(), cols.end());
            m.rowPtr.push_back(m.colIdx.size());
        });
    m.validate();
    return m;
}

std::vector<BenchmarkMatrix>
benchmarkSuite(double scale)
{
    std::vector<BenchmarkMatrix> out;
    for (auto kind : allMatrixKinds())
        out.push_back({kind, matrixName(kind),
                       makeBenchmarkMatrix(kind, scale)});
    return out;
}

} // namespace netsparse
