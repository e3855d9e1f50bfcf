/** @file Tests for the per-thread buffer arenas (sim/arena.hh). */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "sim/arena.hh"

using namespace netsparse;

TEST(BufferArena, PoolsAreSplitByCapacityClass)
{
    drainThreadArenas();
    auto &arena = BufferArena<int>::local();
    std::vector<int> small = arena.acquire(8);
    std::vector<int> large = arena.acquire(79);
    EXPECT_EQ(small.capacity(), 8u);
    EXPECT_EQ(large.capacity(), 79u);
    const int *large_data = large.data();
    large.push_back(1);
    arena.recycle(std::move(small));
    arena.recycle(std::move(large));

    // A large request never receives the small buffer, and a recycled
    // buffer comes back cleared with its storage intact.
    std::vector<int> again = arena.acquire(79);
    EXPECT_EQ(again.data(), large_data);
    EXPECT_TRUE(again.empty());
    ArenaStats s = arena.stats();
    EXPECT_EQ(s.poolMisses, 2u);
    EXPECT_EQ(s.poolHits, 1u);
    EXPECT_EQ(s.pooledBuffers, 1u);
    EXPECT_EQ(s.reservedBytes, 8u * sizeof(int));
    EXPECT_EQ(s.highWaterBytes, (8u + 79u) * sizeof(int));
    arena.recycle(std::move(again));
    drainThreadArenas();
}

TEST(BufferArena, BufferThatOutgrewItsClassIsFreed)
{
    drainThreadArenas();
    auto &arena = BufferArena<int>::local();
    std::vector<int> buf = arena.acquire(4);
    for (int i = 0; i < 5; ++i)
        buf.push_back(i); // regrows past the class capacity
    arena.recycle(std::move(buf));
    EXPECT_EQ(arena.stats().pooledBuffers, 0u);
    EXPECT_EQ(arena.stats().reservedBytes, 0u);
}

TEST(BufferArena, DrainTotalsAndFreesEveryArenaOfTheThread)
{
    drainThreadArenas();
    BufferArena<int>::local().recycle(BufferArena<int>::local().acquire(3));
    BufferArena<double>::local().recycle(
        BufferArena<double>::local().acquire(5));
    ArenaStats s = drainThreadArenas();
    EXPECT_EQ(s.poolMisses, 2u);
    EXPECT_EQ(s.pooledBuffers, 2u);
    EXPECT_EQ(s.reservedBytes, 3 * sizeof(int) + 5 * sizeof(double));

    // Drained: the next run starts from empty pools and zero counters.
    ArenaStats empty = drainThreadArenas();
    EXPECT_EQ(empty.poolMisses, 0u);
    EXPECT_EQ(empty.pooledBuffers, 0u);
    EXPECT_EQ(BufferArena<int>::local().stats().reservedBytes, 0u);
}

TEST(BufferArena, ArenasArePerThread)
{
    drainThreadArenas();
    BufferArena<int>::local().recycle(BufferArena<int>::local().acquire(3));
    ArenaStats other;
    std::thread t([&other] {
        BufferArena<int>::local().recycle(
            BufferArena<int>::local().acquire(3));
        other = drainThreadArenas();
    });
    t.join();
    EXPECT_EQ(other.poolMisses, 1u);
    // The worker's traffic left this thread's arena untouched.
    ArenaStats mine = drainThreadArenas();
    EXPECT_EQ(mine.poolMisses, 1u);
    EXPECT_EQ(mine.poolHits, 0u);
}
