/**
 * @file
 * The in-switch Property Cache (Section 6.2.2, Figure 9).
 *
 * A set-associative cache indexed by the property idx that returns the
 * property value. To support different kernels' property sizes with full
 * capacity utilization, the data array is built from fixed-width (16 B)
 * *segments*: a property of S bytes occupies S/16 adjacent segments of
 * the same set/way. Before a kernel runs, the control plane configures
 * the single property size (the "Mode"), which also invalidates all
 * contents (sparse kernels are short-lived, so there is no cross-kernel
 * reuse to preserve).
 *
 * The simulator stores one 64-bit checksum per entry in place of the
 * property bytes; capacity accounting still uses the true property size.
 */

#ifndef NETSPARSE_CACHE_PROPERTY_CACHE_HH
#define NETSPARSE_CACHE_PROPERTY_CACHE_HH

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace netsparse {

/** Static (hardware) parameters of a Property Cache instance. */
struct PropertyCacheConfig
{
    /** Total data capacity in bytes; 0 disables the cache. */
    std::uint64_t totalBytes = 32ull << 20;
    /** Smallest supported property ("min cache line"). */
    std::uint32_t minLineBytes = 16;
    /** Largest supported property ("max cache line"). */
    std::uint32_t maxLineBytes = 512;
    /** Number of 16 B data segments (maxLine / minLine). */
    std::uint32_t numSegments = 32;
    /** Associativity. */
    std::uint32_t ways = 16;
    /** Access latency in switch-pipe cycles (Table 5: 16). */
    std::uint32_t latencyCycles = 16;
};

/**
 * Pure model of the Segment Selector of Figure 9: given the configured
 * mode (property size) and the segment bits of an idx, produce the
 * 32-bit enable bitmask that activates the segment(s) holding the value.
 */
std::uint32_t segmentEnableMask(std::uint32_t numSegments,
                                std::uint32_t segmentsPerEntry,
                                std::uint32_t segmentBits);

/** One Property Cache (one per switch middle pipe). */
class PropertyCache
{
  public:
    explicit PropertyCache(const PropertyCacheConfig &cfg);

    /**
     * Control-plane reconfiguration before a kernel: set the property
     * size and invalidate everything.
     */
    void configureForKernel(std::uint32_t propertyBytes);

    /** Invalidate all entries without changing the mode. */
    void invalidateAll();

    /**
     * Look up @p idx (read-PR path). On a hit, @p checksum receives the
     * stored value and the entry's recency is refreshed.
     * @return true on hit.
     */
    bool lookup(PropIdx idx, std::uint64_t &checksum);

    /**
     * Insert @p idx (response-PR path). Does nothing when the value is
     * already present. Evicts the set's LRU way when the set is full.
     * @return true when a new entry was written.
     */
    bool insert(PropIdx idx, std::uint64_t checksum);

    /** Entries the cache can hold in the current mode. */
    std::uint64_t capacityEntries() const { return numSets_ * cfg_.ways; }

    std::uint32_t lineBytes() const { return lineBytes_; }
    std::uint32_t latencyCycles() const { return cfg_.latencyCycles; }
    bool enabled() const { return cfg_.totalBytes > 0; }

    // Statistics.
    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t inserts() const { return inserts_; }
    std::uint64_t evictions() const { return evictions_; }
    std::uint64_t duplicateInserts() const { return duplicateInserts_; }

    /** Hit rate over all lookups so far (0 when no lookups). */
    double
    hitRate() const
    {
        return lookups_ ? static_cast<double>(hits_) / lookups_ : 0.0;
    }

    void resetStats();

    /**
     * Register every counter under "<prefix>." (the docs/observability.md
     * property-cache contract, e.g. "tor0.cache.hits").
     */
    void exportStats(StatRegistry &reg, const std::string &prefix) const;

  private:
    /**
     * Validity is per set and epoch-based: a set's ways are live only
     * when its epoch matches the cache's, so bumping the cache epoch
     * invalidates every entry in O(1) - the per-kernel reconfiguration
     * of a multi-megabyte cache costs nothing on the simulator's
     * critical path. Within an epoch nothing else invalidates a way and
     * an insert takes the first invalid one, so the live ways are
     * always the prefix [0, used).
     */
    struct SetHead
    {
        std::uint32_t epoch = 0; // 0 = never written
        std::uint32_t used = 0;
    };

    /** Live ways of set @p s (the prefix [0, n)). */
    std::uint32_t
    liveWays(std::uint64_t s) const
    {
        return heads_[s].epoch == epoch_ ? heads_[s].used : 0;
    }

    /** Advance the epoch, invalidating every set. */
    void bumpEpoch();

    struct FreeDeleter
    {
        void operator()(void *p) const { std::free(p); }
    };
    /**
     * calloc-backed, not a vector: all-zero is exactly the "never
     * written" state, so zero-on-demand pages from the allocator stand
     * in for the multi-megabyte memset a vector resize would do.
     */
    template <typename T>
    using Strip = std::unique_ptr<T[], FreeDeleter>;

    PropertyCacheConfig cfg_;
    std::uint32_t lineBytes_ = 0;
    std::uint64_t numSets_ = 0;
    /** Sets the strips below are allocated for (grow-only). */
    std::uint64_t setCapacity_ = 0;
    Strip<SetHead> heads_;
    /**
     * Way state in separate strips indexed set * ways + way: a lookup
     * scans only the set's live tags (one or two host cache lines);
     * checksums and recency are touched on a hit, an insert or an
     * eviction only.
     */
    Strip<std::uint64_t> tags_;
    Strip<std::uint64_t> checksums_;
    Strip<std::uint64_t> lastUse_;
    std::uint64_t useClock_ = 0;
    std::uint32_t epoch_ = 1;

    std::uint64_t lookups_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t inserts_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t duplicateInserts_ = 0;
};

} // namespace netsparse

#endif // NETSPARSE_CACHE_PROPERTY_CACHE_HH
