// Tests for run_episodes, the one driver behind Step-1 cells and Step-3
// chips: every index runs exactly once on a per-worker clone, the first
// failure reaches the caller only after every worker has returned, and
// once a unit throws nobody claims another index.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/fat_trainer.h"
#include "data/synthetic.h"
#include "nn/serialize.h"
#include "util/rng.h"

namespace reduce {
namespace {

struct tiny_setup {
    std::unique_ptr<sequential> model;
    model_snapshot pretrained;
    dataset data;

    tiny_setup() {
        rng gen(3);
        model = make_mlp({4, 8, 2}, gen);
        pretrained = snapshot_model(*model);
        gaussian_mixture_config gm;
        gm.num_classes = 2;
        gm.dim = 4;
        gm.samples_per_class = 8;
        data = make_gaussian_mixture(gm);
    }

    episode_source source() const { return {*model, pretrained, data, data, fat_config{}}; }
};

TEST(RunEpisodes, EveryIndexRunsExactlyOnceOnAPerWorkerClone) {
    const tiny_setup setup;
    for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
        for (const std::size_t n : {1u, 3u, 7u, 200u}) {
            SCOPED_TRACE("workers " + std::to_string(workers) + ", n " + std::to_string(n));
            std::vector<std::atomic<int>> hits(n);
            std::mutex mutex;
            std::set<const sequential*> models;
            const std::size_t used = run_episodes(
                setup.source(), n, workers, [&](fault_aware_trainer& trainer, std::size_t i) {
                    hits[i].fetch_add(1);
                    std::lock_guard<std::mutex> lock(mutex);
                    models.insert(&trainer.model());
                });
            EXPECT_EQ(used, std::min(workers, n));
            for (std::size_t i = 0; i < n; ++i) { ASSERT_EQ(hits[i].load(), 1) << "index " << i; }
            // Units only ever see worker clones, never the prototype, and no
            // more clones than workers.
            EXPECT_EQ(models.count(setup.model.get()), 0u);
            EXPECT_GE(models.size(), 1u);
            EXPECT_LE(models.size(), used);
        }
    }
    EXPECT_EQ(run_episodes(setup.source(), 0, 4,
                           [](fault_aware_trainer&, std::size_t) { FAIL() << "no units"; }),
              0u);
}

TEST(RunEpisodes, FirstFailureReachesTheCallerAfterEveryWorkerReturned) {
    const tiny_setup setup;
    for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE("workers " + std::to_string(workers));
        std::atomic<int> active{0};
        std::atomic<std::size_t> started{0};
        try {
            run_episodes(setup.source(), 64, workers, [&](fault_aware_trainer&, std::size_t i) {
                active.fetch_add(1);
                started.fetch_add(1);
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                active.fetch_sub(1);
                if (i == 3) { throw std::runtime_error("unit 3 failed"); }
            });
            FAIL() << "run_episodes swallowed the failure";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "unit 3 failed");
            // No sibling is still inside a unit when the caller sees it.
            EXPECT_EQ(active.load(), 0);
        }
        EXPECT_GE(started.load(), 4u);
    }
}

TEST(RunEpisodes, NoWorkerClaimsAnotherIndexAfterAFailure) {
    // Units take ~1 ms, so without the stop every worker would go on to
    // drain all 400 indices; with it, only the few already claimed when
    // unit 10 threw still run.
    const tiny_setup setup;
    for (const std::size_t workers : {2u, 4u, 8u}) {
        SCOPED_TRACE("workers " + std::to_string(workers));
        std::atomic<std::size_t> started{0};
        EXPECT_THROW(run_episodes(setup.source(), 400, workers,
                                  [&](fault_aware_trainer&, std::size_t i) {
                                      started.fetch_add(1);
                                      if (i == 10) { throw std::runtime_error("boom"); }
                                      std::this_thread::sleep_for(
                                          std::chrono::milliseconds(1));
                                  }),
                     std::runtime_error);
        EXPECT_LE(started.load(), 11 + 4 * workers);
    }
}

}  // namespace
}  // namespace reduce
