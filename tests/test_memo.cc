/**
 * @file
 * Tests for common/memo.hh, the single-flight memo behind SimCache,
 * the partitioner's layer-timing memo and PipelineServiceModel: one
 * build per key, waiters sharing a flight and counted as hits (so
 * totals match at any thread count), exceptions reaching every
 * waiter, and LRU eviction.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/memo.hh"
#include "common/parallel.hh"

namespace supernpu {
namespace {

using IntMemo = SingleFlightMemo<int, int>;

/**
 * Run `threads` concurrent getOrCompute calls on one key whose build
 * holds until every other caller has joined the flight. A waiter
 * counts its hit before it blocks, so hits reaching threads - 1 means
 * all of them are waiting. Gives up after a few seconds, so a broken
 * count fails the test rather than hanging it.
 */
template <typename Build>
std::vector<std::shared_ptr<const int>>
raceOneKey(IntMemo &memo, int threads, std::atomic<int> &builds,
           std::atomic<int> &errors, Build build_result)
{
    const auto build = [&]() {
        ++builds;
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (memo.stats().hits < (std::uint64_t)(threads - 1) &&
               std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return build_result();
    };
    std::vector<std::shared_ptr<const int>> got(threads);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            try {
                got[t] = memo.getOrCompute(7, build);
            } catch (const std::runtime_error &) {
                ++errors;
            }
        });
    }
    for (std::thread &thread : pool)
        thread.join();
    return got;
}

TEST(SingleFlightMemo, BuildsEachKeyOnce)
{
    IntMemo memo;
    int builds = 0;
    const auto square = [&](int key) {
        return memo.getOrCompute(key, [&] {
            ++builds;
            return key * key;
        });
    };
    const auto first = square(3);
    EXPECT_EQ(*first, 9);
    EXPECT_EQ(square(3).get(), first.get());
    EXPECT_EQ(*square(4), 16);
    EXPECT_EQ(builds, 2);
    EXPECT_EQ(memo.size(), 2u);
    EXPECT_EQ(memo.stats().misses, 2u);
    EXPECT_EQ(memo.stats().hits, 1u);

    // find() never builds; it counts a hit or a miss.
    EXPECT_EQ(memo.find(3).get(), first.get());
    EXPECT_EQ(memo.find(5), nullptr);
    EXPECT_EQ(builds, 2);
    EXPECT_EQ(memo.stats().hits, 2u);
    EXPECT_EQ(memo.stats().misses, 3u);

    memo.clear();
    EXPECT_EQ(memo.size(), 0u);
    EXPECT_EQ(memo.stats().hits + memo.stats().misses, 0u);
}

TEST(SingleFlightMemo, SameKeyWaitersShareOneBuildAsHits)
{
    constexpr int kThreads = 8;
    IntMemo memo;
    std::atomic<int> builds{0}, errors{0};
    const auto got =
        raceOneKey(memo, kThreads, builds, errors, [] { return 42; });
    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(errors.load(), 0);
    for (const auto &value : got) {
        ASSERT_NE(value, nullptr);
        EXPECT_EQ(value.get(), got[0].get());
    }
    EXPECT_EQ(memo.stats().misses, 1u);
    EXPECT_EQ(memo.stats().hits, (std::uint64_t)kThreads - 1);
}

TEST(SingleFlightMemo, TotalsMatchAtOneAndEightThreads)
{
    // 64 lookups over 4 keys: whatever the interleaving, a serial
    // walk's tallies — 4 misses, 60 hits — at any pool size.
    constexpr int kLookups = 64, kKeys = 4;
    for (int jobs : {1, 8}) {
        IntMemo memo;
        std::atomic<int> builds{0};
        ThreadPool pool(jobs);
        pool.parallelFor(kLookups, [&](std::size_t i) {
            const int key = (int)i % kKeys;
            const auto value = memo.getOrCompute(key, [&] {
                ++builds;
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
                return key + 100;
            });
            EXPECT_EQ(*value, key + 100);
        });
        EXPECT_EQ(builds.load(), kKeys) << jobs << " jobs";
        EXPECT_EQ(memo.stats().misses, (std::uint64_t)kKeys)
            << jobs << " jobs";
        EXPECT_EQ(memo.stats().hits, (std::uint64_t)(kLookups - kKeys))
            << jobs << " jobs";
        EXPECT_EQ(memo.stats().evictions, 0u);
    }
}

TEST(SingleFlightMemo, ThrowingBuildReachesEveryWaiterAndRebuilds)
{
    constexpr int kThreads = 4;
    IntMemo memo;
    std::atomic<int> builds{0}, errors{0};
    const auto got =
        raceOneKey(memo, kThreads, builds, errors, []() -> int {
            throw std::runtime_error("build failed");
        });
    // One build ran; its exception reached the leader and all three
    // waiters, and nothing was stored.
    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(errors.load(), kThreads);
    for (const auto &value : got)
        EXPECT_EQ(value, nullptr);
    EXPECT_EQ(memo.size(), 0u);
    EXPECT_EQ(memo.stats().misses, 1u);
    EXPECT_EQ(memo.stats().hits, (std::uint64_t)kThreads - 1);

    // The key is not poisoned: the next lookup builds it afresh.
    const auto rebuilt = memo.getOrCompute(7, [] { return 8; });
    EXPECT_EQ(*rebuilt, 8);
    EXPECT_EQ(memo.stats().misses, 2u);
    EXPECT_EQ(memo.size(), 1u);
}

TEST(SingleFlightMemo, EvictsLeastRecentlyUsedAtCapacity)
{
    IntMemo memo(2);
    const auto a = memo.getOrCompute(1, [] { return 10; });
    memo.getOrCompute(2, [] { return 20; });
    memo.getOrCompute(1, [] { return -1; }); // touch 1: 2 is now LRU
    memo.getOrCompute(3, [] { return 30; });
    EXPECT_EQ(memo.size(), 2u);
    EXPECT_EQ(memo.stats().evictions, 1u);
    EXPECT_NE(memo.find(1), nullptr);
    EXPECT_NE(memo.find(3), nullptr);
    EXPECT_EQ(memo.find(2), nullptr);
    // A handed-out value outlives its entry.
    memo.clear();
    EXPECT_EQ(*a, 10);
}

TEST(SingleFlightMemo, CapacityZeroNeverEvicts)
{
    IntMemo memo(0);
    for (int key = 0; key < 5000; ++key)
        memo.getOrCompute(key, [key] { return key; });
    EXPECT_EQ(memo.size(), 5000u);
    EXPECT_EQ(memo.stats().evictions, 0u);
    EXPECT_EQ(*memo.find(0), 0);
}

} // namespace
} // namespace supernpu
