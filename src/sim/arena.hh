/**
 * @file
 * Per-shard (thread-local) buffer arenas.
 *
 * The simulator's hottest allocation pattern is short-lived vectors that
 * shuttle payloads between components on one simulation thread: a
 * packet's PR list is born at a concatenation point and dies at a
 * deconcatenation point; a link delivery train's packet list is born
 * when a burst opens the train and dies when it flushes. BufferArena
 * recycles those vectors so steady-state traffic never touches the
 * allocator: acquire() hands back a previously allocated buffer,
 * recycle() returns it cleared but with its capacity intact.
 *
 * Pools are split by capacity class. Callers ask for a few fixed
 * capacities (a concatenation queue's first buffer, the MTU bound of a
 * PR size, a link train's length) and never grow a buffer past the
 * capacity it was acquired with, so recycle() files every buffer back
 * under the class it came from, and a pool miss happens only when more
 * buffers of a class are live at once than ever before in the run. No
 * buffer is freed while a run is in flight; the pools' lifetime is one
 * run: drainThreadArenas() totals and frees them when the run drains.
 *
 * One arena instance exists per thread and element type
 * (BufferArena<T>::local()), which under the parallel engine means one
 * per shard worker - no locks on the hot path, and deterministic
 * behavior because a buffer's capacity never influences simulated time.
 *
 * Accounting (reserved bytes, high water, hits, misses, pooled buffers)
 * is host-side diagnostics of the simulator itself, not part of the
 * deterministic model; runGather exports it as `cluster.memory.*` only
 * under ClusterConfig::memoryStats.
 */

#ifndef NETSPARSE_SIM_ARENA_HH
#define NETSPARSE_SIM_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace netsparse {

/** Arena accounting of one run (see drainThreadArenas). */
struct ArenaStats
{
    /** Capacity bytes currently parked in arenas. */
    std::uint64_t reservedBytes = 0;
    /** Sum of per-arena high-water capacity bytes. */
    std::uint64_t highWaterBytes = 0;
    /** acquire() calls served from a recycled buffer. */
    std::uint64_t poolHits = 0;
    /** acquire() calls that had to allocate a fresh buffer. */
    std::uint64_t poolMisses = 0;
    /** Buffers currently parked in arenas. */
    std::uint64_t pooledBuffers = 0;

    void
    add(const ArenaStats &o)
    {
        reservedBytes += o.reservedBytes;
        highWaterBytes += o.highWaterBytes;
        poolHits += o.poolHits;
        poolMisses += o.poolMisses;
        pooledBuffers += o.pooledBuffers;
    }
};

/**
 * The element-type-independent face of an arena. Every arena registers
 * with its thread's list on construction, so a run can total and free
 * the arenas of a thread without naming their element types.
 */
class ArenaBase
{
  public:
    ArenaBase(const ArenaBase &) = delete;
    ArenaBase &operator=(const ArenaBase &) = delete;

    /** This arena's accounting (owning thread only). */
    virtual ArenaStats stats() const = 0;
    /** Free every pooled buffer and zero the accounting. */
    virtual void release() = 0;

  protected:
    ArenaBase();
    ~ArenaBase();
};

/**
 * The accounting of every arena of the calling thread, after which their
 * pools are freed and their counters zeroed: the end of a run on this
 * thread.
 */
ArenaStats drainThreadArenas();

/** A thread-local pool of recycled std::vector<T> buffers. */
template <typename T>
class BufferArena final : public ArenaBase
{
  public:
    /**
     * A cleared buffer of exactly @p capacity items from that capacity
     * class's pool, or a fresh one when the pool is empty.
     */
    std::vector<T>
    acquire(std::size_t capacity)
    {
        std::vector<std::vector<T>> &pool = classPool(capacity);
        std::vector<T> buf;
        if (!pool.empty()) {
            buf = std::move(pool.back());
            pool.pop_back();
            reserved_ -= capacity * sizeof(T);
            --pooled_;
            ++stats_.poolHits;
        } else {
            buf.reserve(capacity);
            ++stats_.poolMisses;
        }
        return buf;
    }

    /**
     * Return a buffer to its capacity class. A buffer whose capacity no
     * acquire() asked for (one that grew, or never allocated) is freed.
     */
    void
    recycle(std::vector<T> &&buf)
    {
        for (Class &c : classes_) {
            if (c.capacity != buf.capacity())
                continue;
            buf.clear();
            reserved_ += c.capacity * sizeof(T);
            if (reserved_ > highWater_)
                highWater_ = reserved_;
            ++pooled_;
            c.pool.push_back(std::move(buf));
            return;
        }
    }

    ArenaStats
    stats() const override
    {
        ArenaStats s = stats_;
        s.reservedBytes = reserved_;
        s.highWaterBytes = highWater_;
        s.pooledBuffers = pooled_;
        return s;
    }

    void
    release() override
    {
        classes_.clear();
        reserved_ = highWater_ = pooled_ = 0;
        stats_ = ArenaStats{};
    }

    /** The calling thread's (= shard's) arena. */
    static BufferArena &
    local()
    {
        thread_local BufferArena arena;
        return arena;
    }

  private:
    BufferArena() = default;

    struct Class
    {
        std::size_t capacity;
        std::vector<std::vector<T>> pool;
    };

    /** The pool of @p capacity's class, opened on first use. */
    std::vector<std::vector<T>> &
    classPool(std::size_t capacity)
    {
        for (Class &c : classes_)
            if (c.capacity == capacity)
                return c.pool;
        classes_.push_back(Class{capacity, {}});
        return classes_.back().pool;
    }

    /** A handful of classes: a linear scan beats any map. */
    std::vector<Class> classes_;
    std::uint64_t reserved_ = 0;
    std::uint64_t highWater_ = 0;
    std::uint64_t pooled_ = 0;
    ArenaStats stats_;
};

} // namespace netsparse

#endif // NETSPARSE_SIM_ARENA_HH
