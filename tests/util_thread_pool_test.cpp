// Tests for the fan-out primitives the sweep engine and the fleet executor
// run on: run_workers draining a shared atomic cursor, first-failure
// propagation, and thread-count resolution.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace reduce {
namespace {

TEST(RunWorkers, CopiesDrainASharedCursorExactlyOnce) {
    // The executor idiom: every copy claims items from one atomic cursor.
    // Also the TSan coverage for concurrent workers.
    for (const std::size_t workers : {1u, 2u, 4u}) {
        constexpr std::size_t n = 4096;
        std::vector<int> hits(n, 0);
        std::atomic<std::size_t> next{0};
        run_workers(workers, [&] {
            for (;;) {
                const std::size_t i = next.fetch_add(1);
                if (i >= n) { return; }
                ++hits[i];
            }
        });
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(hits[i], 1) << "index " << i << ", workers=" << workers;
        }
    }
}

TEST(RunWorkers, RethrowsTheFirstFailureAfterEveryCopyFinishes) {
    for (const std::size_t workers : {1u, 3u}) {
        std::atomic<std::size_t> finished{0};
        EXPECT_THROW(run_workers(workers,
                                 [&] {
                                     finished.fetch_add(1);
                                     throw std::runtime_error("boom");
                                 }),
                     std::runtime_error);
        EXPECT_EQ(finished.load(), workers);
    }
}

TEST(ResolveThreadCount, ZeroMeansHardwareAndCapBounds) {
    const std::size_t hardware =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    EXPECT_EQ(resolve_thread_count(0), hardware);
    EXPECT_EQ(resolve_thread_count(5), 5u);
    EXPECT_EQ(resolve_thread_count(16, 3), 3u);
    EXPECT_EQ(resolve_thread_count(0, 1), 1u);
}

}  // namespace
}  // namespace reduce
