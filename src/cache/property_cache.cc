#include "cache/property_cache.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace netsparse {

std::uint32_t
segmentEnableMask(std::uint32_t numSegments,
                  std::uint32_t segmentsPerEntry,
                  std::uint32_t segmentBits)
{
    ns_assert(segmentsPerEntry > 0 && segmentsPerEntry <= numSegments,
              "bad segments per entry");
    ns_assert(numSegments % segmentsPerEntry == 0,
              "segments per entry must divide the segment count");
    // In Mode S, the selector ignores the low log2(segmentsPerEntry)
    // segment bits and enables the whole aligned group.
    std::uint32_t group = (segmentBits % numSegments) / segmentsPerEntry;
    std::uint32_t mask =
        segmentsPerEntry == 32 ? 0xffffffffu
                               : ((1u << segmentsPerEntry) - 1u);
    return mask << (group * segmentsPerEntry);
}

PropertyCache::PropertyCache(const PropertyCacheConfig &cfg) : cfg_(cfg)
{
    ns_assert(cfg_.ways > 0, "cache needs at least one way");
    ns_assert(cfg_.minLineBytes > 0 &&
                  cfg_.maxLineBytes % cfg_.minLineBytes == 0,
              "line sizes must nest");
    // The way array is allocated lazily by configureForKernel, sized
    // for the mode the kernel actually uses - not for the worst-case
    // minimum-line mode, whose array can be 4x larger.
    lineBytes_ = cfg_.minLineBytes;
}

namespace {

/** A zeroed array of @p n entries (see PropertyCache::Strip). */
template <typename Strip>
void
callocStrip(Strip &strip, std::uint64_t n)
{
    using T = typename Strip::element_type;
    strip.reset(static_cast<T *>(std::calloc(n, sizeof(T))));
    ns_assert(strip, "property cache allocation failed");
}

} // namespace

void
PropertyCache::configureForKernel(std::uint32_t propertyBytes)
{
    if (!enabled()) {
        lineBytes_ = cfg_.minLineBytes;
        numSets_ = 0;
        setCapacity_ = 0;
        heads_.reset();
        tags_.reset();
        checksums_.reset();
        lastUse_.reset();
        return;
    }
    if (propertyBytes > cfg_.maxLineBytes) {
        ns_fatal("property size ", propertyBytes,
                 " exceeds the largest cache line ", cfg_.maxLineBytes,
                 "; tile the property array (Section 6.2.2)");
    }
    // Round the mode up to the next supported line size.
    lineBytes_ = cfg_.minLineBytes;
    while (lineBytes_ < propertyBytes)
        lineBytes_ *= 2;

    std::uint64_t entries = cfg_.totalBytes / lineBytes_;
    numSets_ = std::max<std::uint64_t>(1, entries / cfg_.ways);
    // Grow-only: carried-over entries are dead anyway once the epoch
    // advances, so invalidation never rewrites the (multi-megabyte)
    // strips. calloc hands back zero-on-demand pages, so even the
    // initial allocation costs nothing until sets are actually touched.
    if (setCapacity_ < numSets_) {
        std::uint64_t ways = numSets_ * cfg_.ways;
        callocStrip(heads_, numSets_);
        callocStrip(tags_, ways);
        callocStrip(checksums_, ways);
        callocStrip(lastUse_, ways);
        setCapacity_ = numSets_;
    }
    bumpEpoch();
    useClock_ = 0;
}

void
PropertyCache::invalidateAll()
{
    bumpEpoch();
}

void
PropertyCache::bumpEpoch()
{
    if (++epoch_ != 0)
        return;
    // Wrapped: no set may still carry an epoch that reads as live.
    std::fill(heads_.get(), heads_.get() + setCapacity_, SetHead{});
    epoch_ = 1;
}

bool
PropertyCache::lookup(PropIdx idx, std::uint64_t &checksum)
{
    if (!enabled() || !heads_)
        return false;
    ++lookups_;
    std::uint64_t s = idx % numSets_;
    std::uint64_t tag = idx / numSets_;
    std::uint64_t base = s * cfg_.ways;
    std::uint32_t used = liveWays(s);
    for (std::uint32_t w = 0; w < used; ++w) {
        if (tags_[base + w] == tag) {
            ++hits_;
            lastUse_[base + w] = ++useClock_;
            checksum = checksums_[base + w];
            return true;
        }
    }
    return false;
}

bool
PropertyCache::insert(PropIdx idx, std::uint64_t checksum)
{
    if (!enabled() || !heads_)
        return false;
    std::uint64_t s = idx % numSets_;
    std::uint64_t tag = idx / numSets_;
    std::uint64_t base = s * cfg_.ways;
    SetHead &head = heads_[s];
    if (head.epoch != epoch_)
        head = SetHead{epoch_, 0};

    for (std::uint32_t w = 0; w < head.used; ++w) {
        if (tags_[base + w] == tag) {
            ++duplicateInserts_;
            return false;
        }
    }
    // Take the first invalid way; a full set evicts its least recently
    // used way (recency stamps are unique, so there are no ties).
    std::uint64_t victim = base + head.used;
    if (head.used < cfg_.ways) {
        ++head.used;
    } else {
        victim = base;
        for (std::uint64_t w = base + 1; w < base + cfg_.ways; ++w)
            if (lastUse_[w] < lastUse_[victim])
                victim = w;
        ++evictions_;
    }
    tags_[victim] = tag;
    checksums_[victim] = checksum;
    lastUse_[victim] = ++useClock_;
    ++inserts_;
    return true;
}

void
PropertyCache::resetStats()
{
    lookups_ = hits_ = inserts_ = evictions_ = duplicateInserts_ = 0;
}

void
PropertyCache::exportStats(StatRegistry &reg,
                           const std::string &prefix) const
{
    reg.set(prefix + ".lookups", static_cast<double>(lookups_));
    reg.set(prefix + ".hits", static_cast<double>(hits_));
    reg.set(prefix + ".hitRate", hitRate());
    reg.set(prefix + ".inserts", static_cast<double>(inserts_));
    reg.set(prefix + ".evictions", static_cast<double>(evictions_));
    reg.set(prefix + ".duplicateInserts",
            static_cast<double>(duplicateInserts_));
    reg.set(prefix + ".capacityEntries",
            static_cast<double>(capacityEntries()));
    reg.set(prefix + ".lineBytes", static_cast<double>(lineBytes_));
}

} // namespace netsparse
