/** @file Tests for the segmented Property Cache (Section 6.2.2). */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cache/property_cache.hh"
#include "net/protocol.hh"
#include "sim/rng.hh"

using namespace netsparse;

namespace {

PropertyCacheConfig
tinyConfig(std::uint64_t bytes = 1024, std::uint32_t ways = 4)
{
    PropertyCacheConfig cfg;
    cfg.totalBytes = bytes;
    cfg.ways = ways;
    return cfg;
}

} // namespace

TEST(PropertyCache, MissThenHitAfterInsert)
{
    PropertyCache c(tinyConfig());
    c.configureForKernel(64);
    std::uint64_t csum = 0;
    EXPECT_FALSE(c.lookup(42, csum));
    EXPECT_TRUE(c.insert(42, 0xabcd));
    EXPECT_TRUE(c.lookup(42, csum));
    EXPECT_EQ(csum, 0xabcdu);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.lookups(), 2u);
}

TEST(PropertyCache, DuplicateInsertIsANoOp)
{
    PropertyCache c(tinyConfig());
    c.configureForKernel(64);
    EXPECT_TRUE(c.insert(7, 111));
    EXPECT_FALSE(c.insert(7, 222));
    std::uint64_t csum = 0;
    EXPECT_TRUE(c.lookup(7, csum));
    EXPECT_EQ(csum, 111u); // the original value survives
    EXPECT_EQ(c.duplicateInserts(), 1u);
}

TEST(PropertyCache, CapacityMatchesModeGeometry)
{
    PropertyCacheConfig cfg = tinyConfig(32 << 10, 16);
    PropertyCache c(cfg);
    c.configureForKernel(64);
    EXPECT_EQ(c.lineBytes(), 64u);
    EXPECT_EQ(c.capacityEntries(), (32u << 10) / 64u);
    // Smaller properties -> more entries: the whole capacity is usable
    // regardless of property size (the point of the segmented design).
    c.configureForKernel(16);
    EXPECT_EQ(c.capacityEntries(), (32u << 10) / 16u);
    c.configureForKernel(512);
    EXPECT_EQ(c.capacityEntries(), (32u << 10) / 512u);
}

TEST(PropertyCache, LineSizeRoundsUpToSupportedMode)
{
    PropertyCache c(tinyConfig(4096));
    c.configureForKernel(40); // K=10 -> next mode is 64 B
    EXPECT_EQ(c.lineBytes(), 64u);
    c.configureForKernel(4); // K=1 -> minimum 16 B line
    EXPECT_EQ(c.lineBytes(), 16u);
}

TEST(PropertyCache, ReconfigureInvalidates)
{
    PropertyCache c(tinyConfig());
    c.configureForKernel(64);
    c.insert(5, 99);
    c.configureForKernel(64);
    std::uint64_t csum = 0;
    EXPECT_FALSE(c.lookup(5, csum));
}

TEST(PropertyCache, InvalidateAllKeepsGeometry)
{
    PropertyCache c(tinyConfig());
    c.configureForKernel(32);
    c.insert(5, 99);
    c.invalidateAll();
    std::uint64_t csum = 0;
    EXPECT_FALSE(c.lookup(5, csum));
    EXPECT_EQ(c.lineBytes(), 32u);
}

TEST(PropertyCache, LruEvictionWithinASet)
{
    // 4 sets x 4 ways of 16 B lines = 256 B.
    PropertyCache c(tinyConfig(256, 4));
    c.configureForKernel(16);
    ASSERT_EQ(c.capacityEntries(), 16u);
    // Idxs congruent mod 4 share a set. Fill set 0 with 0,4,8,12.
    for (PropIdx i : {0u, 4u, 8u, 12u})
        EXPECT_TRUE(c.insert(i, i));
    // Touch 0 so 4 becomes LRU.
    std::uint64_t csum;
    EXPECT_TRUE(c.lookup(0, csum));
    // Inserting 16 (same set) evicts 4.
    EXPECT_TRUE(c.insert(16, 16));
    EXPECT_EQ(c.evictions(), 1u);
    EXPECT_TRUE(c.lookup(0, csum));
    EXPECT_FALSE(c.lookup(4, csum));
    EXPECT_TRUE(c.lookup(8, csum));
    EXPECT_TRUE(c.lookup(16, csum));
}

TEST(PropertyCache, ZeroCapacityIsDisabled)
{
    PropertyCache c(tinyConfig(0));
    c.configureForKernel(64);
    EXPECT_FALSE(c.enabled());
    EXPECT_FALSE(c.insert(1, 1));
    std::uint64_t csum;
    EXPECT_FALSE(c.lookup(1, csum));
    EXPECT_EQ(c.lookups(), 0u);
}

TEST(PropertyCache, OversizedPropertyIsFatal)
{
    PropertyCache c(tinyConfig());
    EXPECT_THROW(c.configureForKernel(1024), std::runtime_error);
}

TEST(PropertyCache, HitRateAndResetStats)
{
    PropertyCache c(tinyConfig());
    c.configureForKernel(16);
    c.insert(1, 1);
    std::uint64_t csum;
    c.lookup(1, csum);
    c.lookup(2, csum);
    EXPECT_DOUBLE_EQ(c.hitRate(), 0.5);
    c.resetStats();
    EXPECT_EQ(c.lookups(), 0u);
    EXPECT_DOUBLE_EQ(c.hitRate(), 0.0);
}

TEST(SegmentSelector, Figure9Example)
{
    // 32 segments, 32 B mode (2 segments per entry), segment bits
    // 1110x: the pair one before last -> enables bits 28 and 29.
    std::uint32_t mask = segmentEnableMask(32, 2, 0b11100);
    EXPECT_EQ(mask, 0b11u << 28);
    mask = segmentEnableMask(32, 2, 0b11101);
    EXPECT_EQ(mask, 0b11u << 28); // the LSB is ignored in 32 B mode
}

TEST(SegmentSelector, ModesEnableTheRightWidth)
{
    // 16 B mode: one segment.
    EXPECT_EQ(segmentEnableMask(32, 1, 5), 1u << 5);
    // 64 B mode: four adjacent segments, aligned.
    EXPECT_EQ(segmentEnableMask(32, 4, 9), 0xfu << 8);
    // 512 B mode: all 32 segments.
    EXPECT_EQ(segmentEnableMask(32, 32, 17), 0xffffffffu);
}

TEST(SegmentSelector, PopcountMatchesSegmentsPerEntry)
{
    for (std::uint32_t spe : {1u, 2u, 4u, 8u, 16u, 32u}) {
        for (std::uint32_t bits = 0; bits < 32; ++bits) {
            std::uint32_t mask = segmentEnableMask(32, spe, bits);
            EXPECT_EQ(static_cast<std::uint32_t>(
                          __builtin_popcount(mask)),
                      spe);
        }
    }
}

TEST(PropertyCache, RandomizedChecksumIntegrity)
{
    // Property test: the cache never returns a wrong value.
    PropertyCache c(tinyConfig(4096, 4));
    c.configureForKernel(64);
    Rng rng(3);
    for (int i = 0; i < 20000; ++i) {
        PropIdx idx = rng.uniformInt(0, 499);
        if (rng.uniform() < 0.5) {
            c.insert(idx, propertyChecksum(idx));
        } else {
            std::uint64_t csum;
            if (c.lookup(idx, csum))
                ASSERT_EQ(csum, propertyChecksum(idx));
        }
    }
    EXPECT_GT(c.hits(), 0u);
    EXPECT_GT(c.evictions(), 0u);
}

namespace {

/**
 * The Property Cache as a per-way array (tag, checksum, recency and
 * epoch side by side, every way scanned on every access): the layout
 * the set-strip cache replaced, kept as the reference its hit, evict
 * and duplicate decisions must reproduce.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const PropertyCacheConfig &cfg) : cfg_(cfg) {}

    void
    configureForKernel(std::uint32_t propertyBytes)
    {
        std::uint32_t line = cfg_.minLineBytes;
        while (line < propertyBytes)
            line *= 2;
        numSets_ = std::max<std::uint64_t>(
            1, cfg_.totalBytes / line / cfg_.ways);
        if (ways_.size() < numSets_ * cfg_.ways)
            ways_.assign(numSets_ * cfg_.ways, Way{});
        ++epoch_;
        useClock_ = 0;
    }

    void invalidateAll() { ++epoch_; }

    bool
    lookup(PropIdx idx, std::uint64_t &checksum)
    {
        ++lookups;
        Way *ws = &ways_[(idx % numSets_) * cfg_.ways];
        for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
            if (ws[w].epoch == epoch_ && ws[w].tag == idx / numSets_) {
                ++hits;
                ws[w].lastUse = ++useClock_;
                checksum = ws[w].checksum;
                return true;
            }
        }
        return false;
    }

    bool
    insert(PropIdx idx, std::uint64_t checksum)
    {
        std::uint64_t tag = idx / numSets_;
        Way *ws = &ways_[(idx % numSets_) * cfg_.ways];
        for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
            if (ws[w].epoch == epoch_ && ws[w].tag == tag) {
                ++duplicateInserts;
                return false;
            }
        }
        Way *victim = nullptr;
        for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
            if (ws[w].epoch != epoch_) {
                victim = &ws[w];
                break;
            }
            if (!victim || ws[w].lastUse < victim->lastUse)
                victim = &ws[w];
        }
        if (victim->epoch == epoch_)
            ++evictions;
        *victim = Way{tag, checksum, ++useClock_, epoch_};
        ++inserts;
        return true;
    }

    std::uint64_t lookups = 0, hits = 0, inserts = 0, evictions = 0,
                  duplicateInserts = 0;

  private:
    struct Way
    {
        std::uint64_t tag = 0;
        std::uint64_t checksum = 0;
        std::uint64_t lastUse = 0;
        std::uint64_t epoch = 0;
    };

    PropertyCacheConfig cfg_;
    std::vector<Way> ways_;
    std::uint64_t numSets_ = 0;
    std::uint64_t useClock_ = 0;
    std::uint64_t epoch_ = 1;
};

/**
 * Drive the cache and the reference with one seeded stream of lookups,
 * inserts, reconfigurations (changing the set count mid-stream) and
 * epoch bumps; every decision and counter must agree.
 */
void
expectMatchesReference(std::uint64_t bytes, std::uint32_t ways,
                       std::uint64_t seed)
{
    SCOPED_TRACE("bytes=" + std::to_string(bytes) +
                 " ways=" + std::to_string(ways) +
                 " seed=" + std::to_string(seed));
    PropertyCacheConfig cfg = tinyConfig(bytes, ways);
    PropertyCache cache(cfg);
    ReferenceCache ref(cfg);
    const std::uint32_t props[] = {16, 64, 48, 200, 16};
    Rng rng(seed);
    std::uint64_t span = 64;
    for (int op = 0; op < 40000; ++op) {
        double u = rng.uniform();
        if (op == 0 || u < 0.0005) {
            std::uint32_t prop = props[rng.uniformInt(0, 4)];
            cache.configureForKernel(prop);
            ref.configureForKernel(prop);
            // Idx ranges from a few sets' worth to well past capacity.
            span = 1 + rng.uniformInt(0, 4 * cache.capacityEntries());
        } else if (u < 0.001) {
            cache.invalidateAll();
            ref.invalidateAll();
        } else if (u < 0.55) {
            PropIdx idx = rng.uniformInt(0, span);
            std::uint64_t got = 0, want = 0;
            bool hit = cache.lookup(idx, got);
            ASSERT_EQ(hit, ref.lookup(idx, want)) << "op " << op;
            if (hit) {
                ASSERT_EQ(got, want) << "op " << op;
            }
        } else {
            PropIdx idx = rng.uniformInt(0, span);
            std::uint64_t csum = rng.uniformInt(0, ~std::uint64_t{0});
            ASSERT_EQ(cache.insert(idx, csum), ref.insert(idx, csum))
                << "op " << op;
        }
        ASSERT_EQ(cache.evictions(), ref.evictions) << "op " << op;
    }
    EXPECT_EQ(cache.lookups(), ref.lookups);
    EXPECT_EQ(cache.hits(), ref.hits);
    EXPECT_EQ(cache.inserts(), ref.inserts);
    EXPECT_EQ(cache.duplicateInserts(), ref.duplicateInserts);
    // The stream must exercise every decision, or agreement is cheap.
    EXPECT_GT(ref.hits, 0u);
    EXPECT_GT(ref.evictions, 0u);
    EXPECT_GT(ref.duplicateInserts, 0u);
}

} // namespace

TEST(PropertyCache, MatchesPerWayReferenceModel)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        expectMatchesReference(4096, 4, seed);  // several sets
        expectMatchesReference(4096, 1, seed);  // direct-mapped
        expectMatchesReference(1024, 16, seed); // full sets, few of them
        expectMatchesReference(256, 16, seed);  // one set in most modes
    }
}
