/** @file Unit tests for the deterministic RNG utilities. */

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

#include "sim/rng.hh"

using namespace netsparse;

TEST(SplitMix, IsDeterministicAndMixes)
{
    EXPECT_EQ(splitmix64(42), splitmix64(42));
    EXPECT_NE(splitmix64(42), splitmix64(43));
    // Single-bit input changes flip roughly half the output bits.
    std::uint64_t a = splitmix64(0x1000);
    std::uint64_t b = splitmix64(0x1001);
    int diff = __builtin_popcountll(a ^ b);
    EXPECT_GT(diff, 16);
    EXPECT_LT(diff, 48);
}

TEST(Rng, SameSeedSameSequence)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformInt(0, 1 << 30), b.uniformInt(0, 1 << 30));
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.uniformInt(0, 1000) == b.uniformInt(0, 1000);
    EXPECT_LT(same, 10);
}

TEST(Rng, UniformIntRespectsBounds)
{
    Rng rng(5);
    for (int i = 0; i < 10000; ++i) {
        auto v = rng.uniformInt(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Rng, UniformInHalfOpenUnitInterval)
{
    Rng rng(6);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double v = rng.uniform();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, GeometricMeanIsApproximatelyRight)
{
    Rng rng(7);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.geometric(10.0));
    EXPECT_NEAR(sum / n, 10.0, 0.5);
    // Degenerate mean never returns zero.
    for (int i = 0; i < 100; ++i)
        EXPECT_GE(rng.geometric(0.5), 1u);
}

TEST(Rng, ZipfStaysInRangeAndIsSkewed)
{
    Rng rng(8);
    const std::uint64_t n = 1000;
    std::vector<std::uint64_t> counts(n, 0);
    for (int i = 0; i < 50000; ++i) {
        auto v = rng.zipf(n, 1.2);
        ASSERT_LT(v, n);
        ++counts[v];
    }
    // Rank 0 must be much more popular than rank n/2.
    EXPECT_GT(counts[0], 10 * std::max<std::uint64_t>(1, counts[n / 2]));
    // Degenerate cases.
    EXPECT_EQ(rng.zipf(1, 1.2), 0u);
    EXPECT_EQ(rng.zipf(0, 1.2), 0u);
}

// ---------------------------------------------------------------------
// LazyMt19937_64 must be std::mt19937_64, draw for draw.

static_assert(LazyMt19937_64::min() == std::mt19937_64::min());
static_assert(LazyMt19937_64::max() == std::mt19937_64::max());

TEST(LazyMt, MatchesStdMt19937AcrossSeeds)
{
    // Past the first block, so both the lazy first-block path and the
    // whole-block twist are covered for every seed.
    std::vector<std::uint64_t> seeds = {0, 1, 5489, ~std::uint64_t(0),
                                        std::uint64_t(1) << 63};
    for (std::uint64_t i = 0; seeds.size() < 1024; ++i)
        seeds.push_back(splitmix64(i));
    for (std::uint64_t seed : seeds) {
        LazyMt19937_64 lazy(seed);
        std::mt19937_64 ref(seed);
        for (int i = 0; i < 320; ++i)
            ASSERT_EQ(lazy(), ref()) << "seed " << seed << " draw " << i;
    }
}

TEST(LazyMt, MatchesStdMt19937AtBlockBoundaries)
{
    // Draw counts around the middle (156) and the end (312) of the first
    // block, and over several whole blocks; a fresh pair per count.
    for (std::uint64_t seed : {std::uint64_t(0), ~std::uint64_t(0),
                               std::uint64_t(0x570CE5)}) {
        for (int n : {1, 2, 155, 156, 157, 311, 312, 313, 467, 468, 469,
                      623, 624, 625, 5 * 312 + 7}) {
            LazyMt19937_64 lazy(seed);
            std::mt19937_64 ref(seed);
            for (int i = 0; i < n; ++i)
                ASSERT_EQ(lazy(), ref())
                    << "seed " << seed << " count " << n << " draw " << i;
        }
    }
}

TEST(LazyMt, RngDrawsMatchAStdMt19937Rng)
{
    // The distributions are libstdc++'s templates, so equal engine
    // output must give equal draws; uniformInt's full 64-bit and small
    // ranges take different rejection paths.
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        Rng rng(seed);
        BasicRng<std::mt19937_64> ref(seed);
        for (int i = 0; i < 200; ++i) {
            ASSERT_EQ(rng.uniform(), ref.uniform());
            ASSERT_EQ(rng.uniformInt(0, 9), ref.uniformInt(0, 9));
            ASSERT_EQ(rng.uniformInt(3, (std::uint64_t(1) << 40) + 5),
                      ref.uniformInt(3, (std::uint64_t(1) << 40) + 5));
            ASSERT_EQ(rng.uniformInt(0, ~std::uint64_t(0)),
                      ref.uniformInt(0, ~std::uint64_t(0)));
            ASSERT_EQ(rng.geometric(28.0), ref.geometric(28.0));
            ASSERT_EQ(rng.geometric(1.5), ref.geometric(1.5));
            ASSERT_EQ(rng.zipf(1000, 1.3), ref.zipf(1000, 1.3));
            ASSERT_EQ(rng.zipf(64, 1.0), ref.zipf(64, 1.0));
        }
    }
}
