// Tests for the FAT trainer: epoch accounting, trajectories, eval grids,
// the epochs-to-target helpers, an independent naive reference loop the
// engine must match bit for bit, and the one episode with its stop at a
// target.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>

#include "core/workload.h"
#include "fault/mask_builder.h"
#include "fault/models.h"
#include "fault/scenario.h"
#include "nn/loss.h"
#include "nn/metrics.h"
#include "util/error.h"

namespace reduce {
namespace {

class TrainerFixture : public ::testing::Test {
protected:
    static void SetUpTestSuite() { shared_ = new workload(make_standard_workload(
        make_test_workload_config())); }
    static void TearDownTestSuite() {
        delete shared_;
        shared_ = nullptr;
    }

    workload& w() { return *shared_; }

    static workload* shared_;
};

workload* TrainerFixture::shared_ = nullptr;

TEST(EvalGrid, FineThenCoarse) {
    const std::vector<double> grid = make_eval_grid(3.0, 1.0, 0.25, 1.0);
    // 0.25, 0.5, 0.75, 1.0, then 2.0, 3.0
    ASSERT_EQ(grid.size(), 6u);
    EXPECT_DOUBLE_EQ(grid[0], 0.25);
    EXPECT_DOUBLE_EQ(grid[3], 1.0);
    EXPECT_DOUBLE_EQ(grid[4], 2.0);
    EXPECT_DOUBLE_EQ(grid.back(), 3.0);
}

TEST(EvalGrid, AlwaysEndsAtBudget) {
    const std::vector<double> grid = make_eval_grid(2.3, 0.5, 0.25, 1.0);
    EXPECT_NEAR(grid.back(), 2.3, 1e-9);
}

TEST(EvalGrid, PointsAreExactStepMultiples) {
    // Regression: the grid was built by a running sum, so step 0.1 drifted
    // (0.1 + 0.1 + 0.1 → 0.30000000000000004) and checkpoint values stopped
    // comparing exactly across trajectories and the grouped/serial paths.
    // Every fine point must be EXACTLY i * fine_step, bit for bit.
    const std::vector<double> grid = make_eval_grid(1.0, 1.0, 0.1, 0.5);
    ASSERT_EQ(grid.size(), 10u);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(grid[i], static_cast<double>(i + 1) * 0.1) << "point " << i;
    }
    // Coarse points anchor on the last fine point with one rounded product.
    const std::vector<double> mixed = make_eval_grid(2.0, 0.3, 0.1, 0.7);
    EXPECT_EQ(mixed[0], 1.0 * 0.1);
    EXPECT_EQ(mixed[1], 2.0 * 0.1);
    EXPECT_EQ(mixed[2], 3.0 * 0.1);
    EXPECT_EQ(mixed[3], 3.0 * 0.1 + 1.0 * 0.7);
    EXPECT_EQ(mixed[4], 3.0 * 0.1 + 2.0 * 0.7);
    EXPECT_EQ(mixed.back(), 2.0);
}

TEST(EvalGrid, RejectsBadArgs) {
    EXPECT_THROW(make_eval_grid(0.0, 1.0, 0.1, 0.5), error);
    EXPECT_THROW(make_eval_grid(1.0, 1.0, 0.0, 0.5), error);
    EXPECT_THROW(make_eval_grid(1.0, -1.0, 0.1, 0.5), error);
}

TEST(EpochsToReach, FindsFirstCrossing) {
    const std::vector<training_point> traj = {
        {0.0, 0.5}, {0.5, 0.85}, {1.0, 0.9}, {2.0, 0.95}};
    EXPECT_DOUBLE_EQ(epochs_to_reach(traj, 0.4).value(), 0.0);
    EXPECT_DOUBLE_EQ(epochs_to_reach(traj, 0.86).value(), 1.0);
    EXPECT_DOUBLE_EQ(epochs_to_reach(traj, 0.95).value(), 2.0);
    EXPECT_FALSE(epochs_to_reach(traj, 0.99).has_value());
}

TEST(AccuracyAtEpochs, StepFunctionSemantics) {
    const std::vector<training_point> traj = {{0.0, 0.5}, {1.0, 0.8}, {2.0, 0.9}};
    EXPECT_DOUBLE_EQ(accuracy_at_epochs(traj, 0.0), 0.5);
    EXPECT_DOUBLE_EQ(accuracy_at_epochs(traj, 0.5), 0.5);
    EXPECT_DOUBLE_EQ(accuracy_at_epochs(traj, 1.0), 0.8);
    EXPECT_DOUBLE_EQ(accuracy_at_epochs(traj, 5.0), 0.9);
}

TEST(AccuracyAtEpochs, RequiresEpochZeroStart) {
    const std::vector<training_point> traj = {{1.0, 0.8}};
    EXPECT_THROW(accuracy_at_epochs(traj, 1.0), error);
    EXPECT_THROW(accuracy_at_epochs({}, 1.0), error);
}

TEST_F(TrainerFixture, ZeroBudgetJustEvaluates) {
    restore_parameters(w().model->parameters(), w().pretrained);
    fault_aware_trainer trainer(*w().model, w().train_data, w().test_data, w().trainer_cfg);
    const fat_result r = trainer.train(0.0);
    EXPECT_EQ(r.steps_run, 0u);
    EXPECT_DOUBLE_EQ(r.epochs_run, 0.0);
    ASSERT_EQ(r.trajectory.size(), 1u);
    EXPECT_NEAR(r.final_accuracy, w().clean_accuracy, 1e-12);
}

TEST_F(TrainerFixture, FractionalEpochRunsFewSteps) {
    restore_parameters(w().model->parameters(), w().pretrained);
    fault_aware_trainer trainer(*w().model, w().train_data, w().test_data, w().trainer_cfg);
    const fat_result r = trainer.train(0.05);
    EXPECT_GE(r.steps_run, 1u);
    data_loader probe(w().train_data, w().trainer_cfg.batch_size, 1);
    EXPECT_LE(r.steps_run, probe.steps_per_epoch());
    EXPECT_GT(r.epochs_run, 0.0);
    EXPECT_LE(r.epochs_run, 1.0);
}

TEST_F(TrainerFixture, TrajectoryCheckpointsMatchGrid) {
    restore_parameters(w().model->parameters(), w().pretrained);
    fault_aware_trainer trainer(*w().model, w().train_data, w().test_data, w().trainer_cfg);
    const fat_result r = trainer.train(1.0, {0.25, 0.5, 0.75});
    // epoch-0 + three checkpoints + budget.
    ASSERT_EQ(r.trajectory.size(), 5u);
    EXPECT_DOUBLE_EQ(r.trajectory.front().epochs, 0.0);
    // Epoch positions are step-quantized but strictly increasing.
    for (std::size_t i = 1; i < r.trajectory.size(); ++i) {
        EXPECT_GT(r.trajectory[i].epochs, r.trajectory[i - 1].epochs);
    }
    EXPECT_NEAR(r.trajectory.back().epochs, 1.0, 1e-9);
}

TEST_F(TrainerFixture, DeterministicAcrossCalls) {
    restore_parameters(w().model->parameters(), w().pretrained);
    fault_aware_trainer trainer(*w().model, w().train_data, w().test_data, w().trainer_cfg);
    const fat_result a = trainer.train(0.5);
    restore_parameters(w().model->parameters(), w().pretrained);
    const fat_result b = trainer.train(0.5);
    EXPECT_DOUBLE_EQ(a.final_accuracy, b.final_accuracy);
    EXPECT_EQ(a.steps_run, b.steps_run);
}

TEST_F(TrainerFixture, MaskedTrainingKeepsPrunedWeightsZero) {
    restore_parameters(w().model->parameters(), w().pretrained);
    random_fault_config fc;
    fc.fault_rate = 0.2;
    const fault_grid faults = generate_random_faults(w().array, fc, 5);
    attach_fault_masks(*w().model, w().array, faults);

    fault_aware_trainer trainer(*w().model, w().train_data, w().test_data, w().trainer_cfg);
    (void)trainer.train(1.0);
    for (parameter* p : w().model->parameters()) {
        if (!p->has_mask()) { continue; }
        for (std::size_t i = 0; i < p->value.numel(); ++i) {
            if (p->mask[i] == 0.0f) {
                ASSERT_EQ(p->value[i], 0.0f) << "pruned weight drifted from zero";
            }
        }
    }
    clear_fault_masks(*w().model);
}

TEST_F(TrainerFixture, FatRecoversMaskedAccuracy) {
    restore_parameters(w().model->parameters(), w().pretrained);
    random_fault_config fc;
    fc.fault_rate = 0.25;
    const fault_grid faults = generate_random_faults(w().array, fc, 6);
    attach_fault_masks(*w().model, w().array, faults);

    fault_aware_trainer trainer(*w().model, w().train_data, w().test_data, w().trainer_cfg);
    const double before = trainer.evaluate();
    const fat_result r = trainer.train(3.0);
    EXPECT_GT(r.final_accuracy, before) << "FAT failed to improve a damaged model";
    clear_fault_masks(*w().model);
}

TEST_F(TrainerFixture, NegativeBudgetRejected) {
    fault_aware_trainer trainer(*w().model, w().train_data, w().test_data, w().trainer_cfg);
    EXPECT_THROW(trainer.train(-1.0), error);
}

TEST_F(TrainerFixture, ConfigValidation) {
    fat_config bad = w().trainer_cfg;
    bad.batch_size = 0;
    EXPECT_THROW(
        fault_aware_trainer(*w().model, w().train_data, w().test_data, bad), error);
    bad = w().trainer_cfg;
    bad.learning_rate = 0.0;
    EXPECT_THROW(
        fault_aware_trainer(*w().model, w().train_data, w().test_data, bad), error);
}

// ---- independent reference: the naive per-model loop ------------------------

/// Test accuracy of `model` via its own sequential::forward.
double naive_evaluate(sequential& model, const dataset& test_data) {
    model.set_training(false);
    std::size_t correct = 0;
    std::vector<std::size_t> indices;
    for (std::size_t index = 0; index < test_data.size(); index += 100) {
        const std::size_t count = std::min<std::size_t>(100, test_data.size() - index);
        indices.resize(count);
        for (std::size_t i = 0; i < count; ++i) { indices[i] = index + i; }
        const batch b = gather_batch(test_data, indices);
        correct += correct_count(model.forward(b.features), b.labels);
    }
    model.set_training(true);
    return static_cast<double>(correct) / static_cast<double>(test_data.size());
}

/// One mid-run fault event for the naive loop (apply == nullptr: none).
struct naive_event {
    double epoch = 0.0;
    std::function<void()> apply;  ///< changes the masks in place
    recovery_mode mode = recovery_mode::recover;
    std::size_t rollback_budget = 0;
};

struct naive_run {
    std::vector<training_point> trajectory;
    std::size_t rollbacks = 0;
    bool hit_nonfinite = false;
};

/// The textbook FAT loop on one model: sequential forward, cross-entropy,
/// backward, an sgd step (which re-applies the masks), and an eval at every
/// stop. The event fires at its stop: recover mode re-masks momentum and
/// continues; restart mode goes back to the masked pretrained weights under
/// the new masks with a fresh optimizer at the original lr. A non-finite
/// loss or weight restores the last stop's model, optimizer and loader,
/// halves lr and truncates the trajectory, until the rollback budget is
/// spent.
naive_run naive_train(sequential& model, const dataset& train_data, const dataset& test_data,
                      const fat_config& cfg, std::vector<double> stops,
                      const naive_event& event = {}) {
    naive_run run;
    run.trajectory.push_back({0.0, naive_evaluate(model, test_data)});
    data_loader loader(train_data, cfg.batch_size, cfg.shuffle_seed);
    const auto fresh_sgd = [&] {
        return std::make_unique<sgd>(model.parameters(),
                                     sgd::config{.learning_rate = cfg.learning_rate,
                                                 .momentum = cfg.momentum,
                                                 .weight_decay = cfg.weight_decay});
    };
    std::unique_ptr<sgd> opt = fresh_sgd();
    model.set_training(true);
    apply_all_masks(opt->params());
    const model_snapshot start = snapshot_model(model);
    if (event.apply) { stops.push_back(event.epoch); }
    std::sort(stops.begin(), stops.end());

    struct checkpoint {
        model_snapshot model;
        optimizer_state opt;
        data_loader::state loader;
        std::size_t steps = 0;
        std::size_t stop = 0;
        std::size_t points = 0;
    };
    std::size_t steps = 0;
    double lr = cfg.learning_rate;
    checkpoint last{start, opt->save_state(), loader.save_state(), 0, 0, 1};
    for (std::size_t s = 0; s < stops.size();) {
        bool finite = true;
        while (finite && steps < loader.steps_for_epochs(stops[s])) {
            const batch b = loader.next_batch();
            const loss_result loss = cross_entropy_loss(model.forward(b.features), b.labels);
            finite = std::isfinite(loss.value);
            if (finite) {
                opt->zero_grad();
                model.backward(loss.grad);
                opt->step();
                ++steps;
            }
        }
        for (const parameter* p : model.parameters()) {
            for (std::size_t i = 0; finite && i < p->value.numel(); ++i) {
                finite = std::isfinite(p->value[i]);
            }
        }
        if (!finite) {
            if (run.rollbacks == event.rollback_budget) {
                run.hit_nonfinite = true;
                break;
            }
            ++run.rollbacks;
            lr *= 0.5;
            restore_model(model, last.model);
            opt->restore_state(last.opt);
            opt->set_learning_rate(lr);
            apply_all_masks(opt->params());
            opt->mask_state();
            loader.restore_state(last.loader);
            steps = last.steps;
            s = last.stop;
            run.trajectory.resize(last.points);
            continue;
        }
        if (event.apply && stops[s] == event.epoch) {
            event.apply();
            if (event.mode == recovery_mode::restart) {
                restore_model(model, start);
                apply_all_masks(model.parameters());
                opt = fresh_sgd();
            } else {
                opt->mask_state();
            }
        }
        run.trajectory.push_back({stops[s], naive_evaluate(model, test_data)});
        ++s;
        last = {snapshot_model(model), opt->save_state(), loader.save_state(), steps, s,
                run.trajectory.size()};
    }
    return run;
}

void expect_same_weights(sequential& a, sequential& b) {
    const std::vector<parameter*> pa = a.parameters();
    const std::vector<parameter*> pb = b.parameters();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
        ASSERT_EQ(pa[i]->value.numel(), pb[i]->value.numel());
        EXPECT_EQ(0, std::memcmp(pa[i]->value.raw(), pb[i]->value.raw(),
                                 pa[i]->value.numel() * sizeof(float)))
            << "parameter " << i;
    }
}

void expect_same_trajectory(const std::vector<training_point>& naive,
                            const std::vector<training_point>& engine) {
    ASSERT_EQ(naive.size(), engine.size());
    for (std::size_t i = 0; i < naive.size(); ++i) {
        EXPECT_EQ(naive[i].epochs, engine[i].epochs) << "point " << i;
        EXPECT_EQ(naive[i].test_accuracy, engine[i].test_accuracy) << "point " << i;
    }
}

TEST_F(TrainerFixture, EngineMatchesTheNaiveLoopBitwise) {
    random_fault_config fc;
    fc.fault_rate = 0.2;
    const fault_grid faults = generate_random_faults(w().array, fc, 8);
    const std::vector<double> grid = make_eval_grid(0.75, 1.0, 0.25, 0.5);
    std::unique_ptr<sequential> naive = clone_model(*w().model);
    std::unique_ptr<sequential> engine = clone_model(*w().model);
    for (sequential* m : {naive.get(), engine.get()}) {
        restore_parameters(m->parameters(), w().pretrained);
        attach_fault_masks(*m, w().array, faults);
    }
    const naive_run expected =
        naive_train(*naive, w().train_data, w().test_data, w().trainer_cfg, grid);
    fault_aware_trainer trainer(*engine, w().train_data, w().test_data, w().trainer_cfg);
    const fat_result r = trainer.train(0.75, grid);
    expect_same_trajectory(expected.trajectory, r.trajectory);
    expect_same_weights(*naive, *engine);
    EXPECT_FALSE(r.hit_nonfinite);
}

/// One model under a fault-timeline scenario: its own guard and working
/// grid, masks attached for `faults`.
struct timeline_model {
    timeline_model(const workload& w, const fault_grid& faults)
        : model(clone_model(*w.model)), working(faults) {
        restore_parameters(model->parameters(), w.pretrained);
        guard = std::make_unique<fault_state_guard>(*model, w.pretrained);
        attach_fault_masks(*model, w.array, working);
    }
    std::unique_ptr<sequential> model;
    std::unique_ptr<fault_state_guard> guard;
    fault_grid working;
};

/// Trains the naive loop and the engine under the same one-event scenario
/// and expects the same trajectory and weights, bit for bit.
fat_result expect_engine_matches_naive(workload& w, const fat_config& cfg,
                                       const fault_grid& faults, const char* spec,
                                       double budget, const std::vector<double>& grid) {
    const scenario_config scenario = parse_scenario(spec);
    const fault_timeline timeline = timeline_for_chip(scenario, 3);

    timeline_model naive(w, faults);
    naive_event event;
    event.epoch = scenario.events.at(0).epoch;
    event.mode = scenario.mode;
    event.rollback_budget = scenario.mode == recovery_mode::recover ? scenario.rollback_budget : 0;
    event.apply = [&] {
        apply_fault_event(naive.working, timeline, 0);
        naive.guard->swap_masks(w.array, naive.working);
    };
    std::vector<double> stops;
    for (const double e : grid) {
        if (e < budget - 1e-9) { stops.push_back(e); }
    }
    stops.push_back(budget);
    const naive_run expected =
        naive_train(*naive.model, w.train_data, w.test_data, cfg, stops, event);

    timeline_model engine(w, faults);
    const train_event_hooks hooks =
        timeline_hooks(timeline, engine.working, *engine.guard, w.array);
    fault_aware_trainer trainer(*engine.model, w.train_data, w.test_data, cfg);
    const fat_result r = trainer.train(budget, grid, std::nullopt, &hooks);

    EXPECT_EQ(r.events_applied, 1u) << spec;
    EXPECT_EQ(r.rollbacks, expected.rollbacks) << spec;
    EXPECT_EQ(r.hit_nonfinite, expected.hit_nonfinite) << spec;
    EXPECT_GT(engine.working.faulty_count(), faults.faulty_count()) << spec;
    EXPECT_TRUE(engine.working == naive.working) << spec;
    expect_same_trajectory(expected.trajectory, r.trajectory);
    expect_same_weights(*naive.model, *engine.model);
    return r;
}

TEST_F(TrainerFixture, EngineMatchesTheNaiveLoopThroughARecoverStrike) {
    random_fault_config fc;
    fc.fault_rate = 0.1;
    const fault_grid faults = generate_random_faults(w().array, fc, 9);
    const fat_result r = expect_engine_matches_naive(
        w(), w().trainer_cfg, faults, "strike@0.3:0.1;mode=recover;seed=4", 0.75,
        make_eval_grid(0.75, 1.0, 0.25, 0.5));
    EXPECT_EQ(r.rollbacks, 0u);
    EXPECT_EQ(r.restarts, 0u);
}

TEST_F(TrainerFixture, EngineMatchesTheNaiveLoopThroughARestartStrike) {
    random_fault_config fc;
    fc.fault_rate = 0.1;
    const fault_grid faults = generate_random_faults(w().array, fc, 9);
    const fat_result r = expect_engine_matches_naive(
        w(), w().trainer_cfg, faults, "strike@0.3:0.1;mode=restart;seed=4", 0.75,
        make_eval_grid(0.75, 1.0, 0.25, 0.5));
    EXPECT_EQ(r.restarts, 1u);
}

TEST_F(TrainerFixture, EngineMatchesTheNaiveLoopThroughRollbacks) {
    // A learning rate past the edge of stability: the run diverges after
    // its first checkpoints, rolls back to the last finite one at half the
    // rate (more than once), and finishes finite.
    random_fault_config fc;
    fc.fault_rate = 0.1;
    const fault_grid faults = generate_random_faults(w().array, fc, 9);
    fat_config cfg = w().trainer_cfg;
    cfg.learning_rate = 20.0;
    const fat_result r = expect_engine_matches_naive(
        w(), cfg, faults, "strike@0.33:0.1;mode=recover;rollback=8;seed=4", 3.0,
        make_eval_grid(3.0, 1.0, 0.05, 0.5));
    EXPECT_GE(r.rollbacks, 2u);
    EXPECT_FALSE(r.hit_nonfinite);
}

// ---- the one episode and its stop at a target --------------------------------

void expect_model_is_pretrained(workload& w) {
    const std::vector<parameter*> params = w.model->parameters();
    for (std::size_t i = 0; i < params.size(); ++i) {
        EXPECT_FALSE(params[i]->has_mask()) << "parameter " << i;
        EXPECT_TRUE(params[i]->value == w.pretrained.values[i]) << "parameter " << i;
    }
}

TEST_F(TrainerFixture, StopAtAccuracyEndsWhereTheFullRunFirstMeetsIt) {
    // Every target stops at the point epochs_to_reach finds on the
    // full-budget trajectory, with that trajectory's prefix, and counts
    // only the events before the stop (here: a strike at 0.07).
    restore_parameters(w().model->parameters(), w().pretrained);
    random_fault_config fc;
    fc.fault_rate = 0.8;
    const fault_grid faults = generate_random_faults(w().array, fc, 9);
    fat_config cfg = w().trainer_cfg;
    cfg.learning_rate = 8.0;
    fault_aware_trainer trainer(*w().model, w().train_data, w().test_data, cfg);
    const scenario_config scenario = parse_scenario("strike@0.07:0.05;mode=recover;seed=4");
    const auto run = [&](std::optional<double> target) {
        return run_episode(trainer, w().pretrained, w().array,
                           {.seed = 1,
                            .faults = faults,
                            .timeline = timeline_for_chip(scenario, 3),
                            .budget = 3.0,
                            .grid = make_eval_grid(3.0, 1.0, 0.05, 0.5),
                            .target = target})
            .fat;
    };
    const fat_result full = run(std::nullopt);
    ASSERT_EQ(full.events_applied, 1u);
    const std::vector<training_point>& traj = full.trajectory;

    // Each new best accuracy is the first crossing of its own value.
    std::size_t crossings = 0;
    std::size_t after_event = 0;
    double best = traj.front().test_accuracy;
    for (std::size_t i = 1; i < traj.size(); ++i) {
        if (traj[i].test_accuracy <= best) { continue; }
        best = traj[i].test_accuracy;
        ++crossings;
        ASSERT_EQ(epochs_to_reach(traj, best), traj[i].epochs);
        const fat_result stopped = run(best);
        EXPECT_FALSE(stopped.hit_nonfinite);
        expect_same_trajectory(
            std::vector<training_point>(traj.begin(), traj.begin() + static_cast<std::ptrdiff_t>(i + 1)),
            stopped.trajectory);
        EXPECT_EQ(stopped.final_accuracy, best);
        EXPECT_LE(stopped.epochs_run, full.epochs_run);
        EXPECT_EQ(stopped.events_applied, traj[i].epochs > 0.07 ? 1u : 0u) << traj[i].epochs;
        if (traj[i].epochs > 0.07) { ++after_event; }
        expect_model_is_pretrained(w());
    }
    EXPECT_GE(crossings, 3u);
    EXPECT_GE(after_event, 2u);

    // Met at epoch 0: no step is taken. Never met: the full run.
    const fat_result at_zero = run(traj.front().test_accuracy);
    EXPECT_EQ(at_zero.trajectory.size(), 1u);
    EXPECT_EQ(at_zero.steps_run, 0u);
    EXPECT_EQ(at_zero.events_applied, 0u);
    const fat_result never = run(1.01);
    expect_same_trajectory(traj, never.trajectory);
    EXPECT_EQ(never.steps_run, full.steps_run);
    EXPECT_EQ(never.events_applied, full.events_applied);
}

TEST_F(TrainerFixture, RunEpisodeLeavesThePretrainedModelOnEveryExit) {
    restore_parameters(w().model->parameters(), w().pretrained);
    random_fault_config fc;
    fc.fault_rate = 0.2;
    fault_aware_trainer trainer(*w().model, w().train_data, w().test_data, w().trainer_cfg);
    episode ep{.seed = 5,
               .faults = generate_random_faults(w().array, fc, 5),
               .timeline = timeline_for_chip(parse_scenario("strike@0.1:0.05"), 0),
               .budget = 0.25};
    std::size_t masked_layers = 0;
    const episode_result r = run_episode(trainer, w().pretrained, w().array, ep,
                                         [&](sequential& trained) {
                                             for (parameter* p : trained.parameters()) {
                                                 if (p->has_mask()) { ++masked_layers; }
                                             }
                                         });
    EXPECT_EQ(r.fat.events_applied, 1u);
    EXPECT_EQ(masked_layers, r.masks.layers);
    EXPECT_GT(r.masks.masked_weights, 0u);
    expect_model_is_pretrained(w());

    // The trainer rejects the budget after the masks are attached.
    ep.budget = -1.0;
    EXPECT_THROW((void)run_episode(trainer, w().pretrained, w().array, ep), error);
    expect_model_is_pretrained(w());
}

}  // namespace
}  // namespace reduce
