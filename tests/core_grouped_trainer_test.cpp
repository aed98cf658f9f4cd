// K-invariance suite for the fleet's retraining worker: chip_tuner::tune_group
// over K chips must reproduce tune() (one chip per call) BIT FOR BIT —
// outcomes, trajectories (pinned through the oracle's stop), and
// captured deployable snapshots — at every group size and every
// --gemm-threads, over MLP, VGG (structural-zero conv skips in BOTH
// directions), batch-norm/dropout models, fault timelines in recover and
// restart mode, and groups whose chips diverge. Also pins the executor's
// grouping accounting, and that the oracle's batch-norm snapshot deploys at
// its reported accuracy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "core/fleet_executor.h"
#include "core/workload.h"
#include "data/synthetic.h"
#include "fault/chip.h"
#include "fault/models.h"
#include "fault/scenario.h"
#include "nn/norm.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace reduce {
namespace {

struct train_case {
    std::unique_ptr<sequential> model;
    model_snapshot pretrained;
    dataset train_data;
    dataset test_data;
    array_config array;
    fat_config trainer_cfg;
    std::vector<chip> chips;
};

std::vector<chip> make_case_fleet(const array_config& array, std::size_t count,
                                  double rate_lo, double rate_hi, std::uint64_t seed) {
    fleet_config fc;
    fc.num_chips = count;
    fc.rate_lo = rate_lo;
    fc.rate_hi = rate_hi;
    fc.seed = seed;
    return make_fleet(array, fc);
}

train_case make_mlp_case() {
    train_case c;
    workload w = make_standard_workload(make_test_workload_config());
    c.model = std::move(w.model);
    c.pretrained = std::move(w.pretrained);
    c.train_data = std::move(w.train_data);
    c.test_data = std::move(w.test_data);
    c.array = w.array;
    c.trainer_cfg = w.trainer_cfg;
    c.chips = make_case_fleet(c.array, 8, 0.03, 0.3, 99);
    return c;
}

/// VGG11 on 8x8 inputs: the deep 1x1-spatial stages exercise the grouped
/// conv active-row skips forward (gemm_k_subset) and backward (compact
/// dX/dW drivers).
train_case make_vgg_case() {
    train_case c;
    synthetic_images_config data_cfg;
    data_cfg.shape = {3, 8, 8};
    data_cfg.num_classes = 4;
    data_cfg.samples_per_class = 30;
    const dataset full = make_synthetic_images(data_cfg);
    dataset_split split = split_dataset(full, 0.6, 5);
    c.train_data = std::move(split.train);
    c.test_data = std::move(split.test);
    vgg11_config model_cfg;
    model_cfg.input = data_cfg.shape;
    model_cfg.num_classes = data_cfg.num_classes;
    model_cfg.width_multiplier = 0.0625;
    rng gen(3);
    c.model = make_vgg11(model_cfg, gen);
    c.pretrained = snapshot_parameters(c.model->parameters());
    c.array.rows = 48;
    c.array.cols = 48;
    c.trainer_cfg.batch_size = 32;
    c.chips = make_case_fleet(c.array, 8, 0.05, 0.3, 17);
    return c;
}

/// MLP with batch-norm AND dropout — the stateful-layer case: a chip's RNG
/// streams and batch/running statistics must not depend on the chips tuned
/// before it.
train_case make_stochastic_case() {
    train_case c;
    gaussian_mixture_config data_cfg;
    data_cfg.num_classes = 4;
    data_cfg.dim = 16;
    data_cfg.samples_per_class = 100;
    data_cfg.seed = 31;
    const dataset full = make_gaussian_mixture(data_cfg);
    dataset_split split = split_dataset(full, 0.7, 2);
    c.train_data = std::move(split.train);
    c.test_data = std::move(split.test);
    rng gen(4);
    c.model = std::make_unique<sequential>();
    c.model->emplace<linear>(16, 32, gen);
    c.model->emplace<batch_norm1d>(32);
    c.model->emplace<relu_layer>();
    c.model->emplace<dropout>(0.2, gen.next_u64());
    c.model->emplace<linear>(32, 4, gen);
    c.array.rows = 32;
    c.array.cols = 32;
    c.trainer_cfg.batch_size = 32;
    fault_aware_trainer pretrainer(*c.model, c.train_data, c.test_data, c.trainer_cfg);
    (void)pretrainer.train(2.0);
    c.pretrained = snapshot_parameters(c.model->parameters());
    c.chips = make_case_fleet(c.array, 8, 0.05, 0.25, 7);
    return c;
}

void expect_outcome_bits_equal(const chip_outcome& serial, const chip_outcome& grouped,
                               const char* label, std::size_t g) {
    EXPECT_EQ(serial.events_applied, grouped.events_applied) << label << " variant " << g;
    EXPECT_EQ(serial.rollbacks, grouped.rollbacks) << label << " variant " << g;
    EXPECT_EQ(serial.restarts, grouped.restarts) << label << " variant " << g;
    EXPECT_EQ(serial.hit_nonfinite, grouped.hit_nonfinite) << label << " variant " << g;
    EXPECT_EQ(serial.chip_id, grouped.chip_id) << label << " variant " << g;
    EXPECT_EQ(serial.nominal_fault_rate, grouped.nominal_fault_rate)
        << label << " variant " << g;
    EXPECT_EQ(serial.effective_fault_rate, grouped.effective_fault_rate)
        << label << " variant " << g;
    EXPECT_EQ(serial.masked_weight_fraction, grouped.masked_weight_fraction)
        << label << " variant " << g;
    EXPECT_EQ(serial.epochs_allocated, grouped.epochs_allocated)
        << label << " variant " << g;
    EXPECT_EQ(serial.epochs_run, grouped.epochs_run) << label << " variant " << g;
    EXPECT_EQ(serial.accuracy_before, grouped.accuracy_before)
        << label << " variant " << g;
    EXPECT_EQ(serial.final_accuracy, grouped.final_accuracy) << label << " variant " << g;
    EXPECT_EQ(serial.meets_constraint, grouped.meets_constraint)
        << label << " variant " << g;
    EXPECT_EQ(serial.selection_failed, grouped.selection_failed)
        << label << " variant " << g;
}

/// BYTE equality of deployable snapshots (memcmp, not float ==, so a -0/+0
/// or NaN-payload drift cannot hide).
void expect_snapshot_bytes_equal(const model_snapshot& serial, const model_snapshot& grouped,
                                 const char* label, std::size_t g) {
    ASSERT_EQ(serial.values.size(), grouped.values.size()) << label << " variant " << g;
    for (std::size_t p = 0; p < serial.values.size(); ++p) {
        ASSERT_EQ(serial.values[p].numel(), grouped.values[p].numel())
            << label << " variant " << g << " param " << p;
        EXPECT_EQ(0, std::memcmp(serial.values[p].raw(), grouped.values[p].raw(),
                                 serial.values[p].numel() * sizeof(float)))
            << label << " variant " << g << " param " << p << " bytes differ";
    }
    ASSERT_EQ(serial.state.size(), grouped.state.size()) << label << " variant " << g;
    for (std::size_t s = 0; s < serial.state.size(); ++s) {
        ASSERT_EQ(serial.state[s].numel(), grouped.state[s].numel())
            << label << " variant " << g << " state " << s;
        EXPECT_EQ(0, std::memcmp(serial.state[s].raw(), grouped.state[s].raw(),
                                 serial.state[s].numel() * sizeof(float)))
            << label << " variant " << g << " state " << s << " bytes differ";
    }
}

/// The K = 1 reference: chip_tuner::tune per chip, snapshots captured.
std::vector<chip_outcome> serial_tune(train_case& c, const std::vector<std::size_t>& pick,
                                      const epoch_allocation& alloc, double constraint,
                                      std::vector<model_snapshot>& snapshots,
                                      const scenario_config& scenario) {
    chip_tuner tuner(*c.model, c.pretrained, c.train_data, c.test_data, c.array,
                     c.trainer_cfg);
    tuner.set_capture_tuned(true);
    tuner.set_scenario(scenario);
    std::vector<chip_outcome> outcomes;
    snapshots.clear();
    for (const std::size_t idx : pick) {
        outcomes.push_back(tuner.tune(c.chips[idx], alloc, constraint,
                                      0.01 * static_cast<double>(idx)));
        snapshots.push_back(tuner.take_tuned());
    }
    return outcomes;
}

/// Tunes `pick` as one group and as K = 1 episodes, expects every outcome
/// and snapshot byte-identical, and returns the group's outcomes.
std::vector<chip_outcome> expect_grouped_matches_serial(
    train_case& c, const std::vector<std::size_t>& pick, const epoch_allocation& alloc,
    double constraint, const char* label, const scenario_config& scenario = {}) {
    std::vector<model_snapshot> serial_snaps;
    const std::vector<chip_outcome> serial =
        serial_tune(c, pick, alloc, constraint, serial_snaps, scenario);

    chip_tuner tuner(*c.model, c.pretrained, c.train_data, c.test_data, c.array,
                     c.trainer_cfg);
    tuner.set_capture_tuned(true);
    tuner.set_scenario(scenario);
    std::vector<const chip*> chips;
    std::vector<const epoch_allocation*> allocs;
    std::vector<double> rates;
    for (const std::size_t idx : pick) {
        chips.push_back(&c.chips[idx]);
        allocs.push_back(&alloc);
        rates.push_back(0.01 * static_cast<double>(idx));
    }
    const std::vector<chip_outcome> grouped =
        tuner.tune_group(chips, allocs, constraint, rates, {});
    EXPECT_EQ(grouped.size(), pick.size()) << label;
    for (std::size_t g = 0; g < std::min(grouped.size(), pick.size()); ++g) {
        expect_outcome_bits_equal(serial[g], grouped[g], label, g);
        const model_snapshot snap = tuner.take_tuned(g);
        expect_snapshot_bytes_equal(serial_snaps[g], snap, label, g);
    }
    return grouped;
}

std::vector<std::size_t> pick_cyclic(const train_case& c, std::size_t k) {
    std::vector<std::size_t> pick(k);
    for (std::size_t i = 0; i < k; ++i) { pick[i] = i % c.chips.size(); }
    return pick;
}

/// The full K x gemm-threads matrix for one model case.
void run_matrix(train_case& c, const epoch_allocation& alloc, double constraint,
                const char* label, const scenario_config& scenario = {}) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
        const scoped_intra_op_threads budget(threads);
        for (const std::size_t k : {1u, 2u, 8u}) {
            expect_grouped_matches_serial(c, pick_cyclic(c, k), alloc, constraint, label,
                                          scenario);
        }
    }
}

TEST(GroupedChipTuner, MlpMatchesSerialAcrossKAndGemmThreads) {
    train_case c = make_mlp_case();
    epoch_allocation alloc;
    alloc.epochs = 0.5;
    run_matrix(c, alloc, 0.8, "mlp");
}

TEST(GroupedChipTuner, VggMatchesSerialAcrossKAndGemmThreads) {
    train_case c = make_vgg_case();
    epoch_allocation alloc;
    alloc.epochs = 0.5;
    run_matrix(c, alloc, 0.4, "vgg");
}

TEST(GroupedChipTuner, StochasticModelMatchesSerialAcrossKAndGemmThreads) {
    train_case c = make_stochastic_case();
    epoch_allocation alloc;
    alloc.epochs = 0.5;
    run_matrix(c, alloc, 0.6, "bn+dropout");
}

TEST(GroupedChipTuner, OracleAllocationMatchesSerialIncludingTheStop) {
    // train_to_target runs the shared checkpoint grid — this pins the whole
    // per-variant TRAJECTORY up to the target (epochs_to_reach reads every
    // point) and the captured model of chips that stop before the budget.
    train_case c = make_mlp_case();
    epoch_allocation alloc;
    alloc.epochs = 1.0;
    alloc.train_to_target = true;
    for (const std::size_t threads : {1u, 8u}) {
        const scoped_intra_op_threads budget(threads);
        for (const std::size_t k : {2u, 8u}) {
            expect_grouped_matches_serial(c, pick_cyclic(c, k), alloc, 0.5, "oracle");
        }
    }
}

TEST(GroupedChipTuner, ZeroEpochAllocationMatchesSerial) {
    train_case c = make_mlp_case();
    epoch_allocation alloc;
    alloc.epochs = 0.0;
    expect_grouped_matches_serial(c, pick_cyclic(c, 4), alloc, 0.8, "zero-epoch");
}

TEST(GroupedChipTuner, RecoverTimelineGroupsMatchKOne) {
    // Each chip's timeline swaps only its own masks.
    train_case c = make_mlp_case();
    epoch_allocation alloc;
    alloc.epochs = 0.5;
    run_matrix(c, alloc, 0.8, "recover",
               parse_scenario("strike@0.2:0.05;accrue@0.35:0.03;mode=recover;rollback=2"));
}

TEST(GroupedChipTuner, RestartTimelineGroupsMatchKOne) {
    train_case c = make_mlp_case();
    epoch_allocation alloc;
    alloc.epochs = 0.5;
    run_matrix(c, alloc, 0.8, "restart", parse_scenario("strike@0.2:0.05;mode=restart"));
}

TEST(GroupedChipTuner, TimelineOracleStopMatchesKOne) {
    // train_to_target + timeline: each chip fires its own events up to its
    // own stop, whatever the group around it.
    for (const char* spec : {"strike@0.1:0.05;mode=recover", "strike@0.1:0.05;mode=restart"}) {
        train_case c = make_vgg_case();
        epoch_allocation alloc;
        alloc.epochs = 0.5;
        alloc.train_to_target = true;
        const scoped_intra_op_threads budget(2);
        expect_grouped_matches_serial(c, pick_cyclic(c, 4), alloc, 0.3, spec,
                                      parse_scenario(spec));
    }
}

TEST(GroupedChipTuner, MixedDivergenceGroupMatchesKOne) {
    // A learning rate at the edge of stability with one rollback allowed:
    // in one group some chips diverge, roll back to their own anchor at
    // half the rate and finish, some diverge again and end hit_nonfinite,
    // and the rest never diverge. Every chip must still equal its lone
    // tune(), at any --gemm-threads.
    train_case c = make_mlp_case();
    c.chips = make_case_fleet(c.array, 8, 0.0, 0.9, 99);
    c.trainer_cfg.learning_rate = 400.0;
    epoch_allocation alloc;
    alloc.epochs = 1.0;
    const scenario_config scenario = parse_scenario("strike@0.2:0.05;mode=recover;rollback=1");
    for (const std::size_t threads : {1u, 8u}) {
        const scoped_intra_op_threads budget(threads);
        const std::vector<chip_outcome> grouped = expect_grouped_matches_serial(
            c, pick_cyclic(c, 8), alloc, 0.8, "mixed divergence", scenario);
        std::size_t recovered = 0;
        std::size_t gave_up = 0;
        std::size_t clean = 0;
        for (const chip_outcome& o : grouped) {
            if (o.hit_nonfinite) {
                ++gave_up;
                EXPECT_EQ(o.final_accuracy, 0.0);
            } else if (o.rollbacks > 0) {
                ++recovered;
            } else {
                ++clean;
            }
        }
        EXPECT_GT(recovered, 0u);
        EXPECT_GT(gave_up, 0u);
        EXPECT_GT(clean, 0u);
    }
}

TEST(GroupedChipTuner, InjectedAccuracyBeforeMatchesComputed) {
    // The executor feeds grouped-evaluator epoch-0 accuracies in; injecting
    // them must change nothing vs computing them in tune_group.
    train_case c = make_mlp_case();
    epoch_allocation alloc;
    alloc.epochs = 0.25;
    const std::vector<std::size_t> pick = pick_cyclic(c, 4);
    chip_tuner tuner(*c.model, c.pretrained, c.train_data, c.test_data, c.array,
                     c.trainer_cfg);
    std::vector<const chip*> chips;
    std::vector<const epoch_allocation*> allocs;
    std::vector<double> rates(pick.size(), 0.1);
    for (const std::size_t idx : pick) {
        chips.push_back(&c.chips[idx]);
        allocs.push_back(&alloc);
    }
    const std::vector<chip_outcome> computed =
        tuner.tune_group(chips, allocs, 0.8, rates, {});
    std::vector<double> before;
    for (const chip_outcome& o : computed) { before.push_back(o.accuracy_before); }
    const std::vector<chip_outcome> injected =
        tuner.tune_group(chips, allocs, 0.8, rates, before);
    for (std::size_t g = 0; g < pick.size(); ++g) {
        expect_outcome_bits_equal(computed[g], injected[g], "injected", g);
    }
}

TEST(OracleStop, BatchNormSnapshotDeploysAtTheReportedAccuracy) {
    // The oracle's run ends at the first checkpoint meeting the target, so
    // the captured model is the model behind the reported accuracy —
    // running statistics included, which a parameters-only rebuild of the
    // capture would take from the end of the budget run instead.
    train_case c = make_stochastic_case();
    c.chips = make_case_fleet(c.array, 16, 0.05, 0.25, 7);
    const double constraint = 0.9;
    epoch_allocation oracle;
    oracle.epochs = 2.0;
    oracle.train_to_target = true;
    chip_tuner tuner(*c.model, c.pretrained, c.train_data, c.test_data, c.array,
                     c.trainer_cfg);
    tuner.set_capture_tuned(true);
    std::size_t stopped_early = 0;
    for (std::size_t i = 0; i < c.chips.size(); ++i) {
        const chip_outcome out = tuner.tune(c.chips[i], oracle, constraint, 0.1);
        const model_snapshot snap = tuner.take_tuned();
        std::unique_ptr<sequential> deployed = clone_model(*c.model);
        restore_model(*deployed, snap);
        EXPECT_EQ(evaluate_model(*deployed, c.test_data, c.trainer_cfg), out.final_accuracy)
            << "chip " << i;
        if (!out.meets_constraint || out.epochs_run >= oracle.epochs) { continue; }
        ++stopped_early;
        // The same chip trained for exactly the charged checkpoint.
        epoch_allocation fixed;
        fixed.epochs = out.epochs_run;
        const chip_outcome plain = tuner.tune(c.chips[i], fixed, constraint, 0.1);
        EXPECT_EQ(plain.final_accuracy, out.final_accuracy) << "chip " << i;
        expect_snapshot_bytes_equal(tuner.take_tuned(), snap, "oracle stop", i);
    }
    EXPECT_GE(stopped_early, 2u);
}

// ---- executor-level equivalence and downgrade accounting --------------------

void expect_identical_outcomes(const policy_outcome& a, const policy_outcome& b,
                               const char* label) {
    ASSERT_EQ(a.chips.size(), b.chips.size()) << label;
    for (std::size_t i = 0; i < a.chips.size(); ++i) {
        expect_outcome_bits_equal(a.chips[i], b.chips[i], label, i);
    }
}

TEST(FleetExecutor, GroupedTrainingMatchesSerialAcrossThreadsAndBatch) {
    train_case c = make_mlp_case();
    const fixed_policy policy(0.25, 0.8);
    const auto run = [&](std::size_t threads, std::size_t train_batch,
                         fleet_run_stats* stats) {
        fleet_executor executor(
            *c.model, c.pretrained, c.train_data, c.test_data, c.array, c.trainer_cfg,
            fleet_executor_config{.threads = threads, .train_batch_chips = train_batch});
        const policy_outcome out = executor.run(policy, c.chips);
        if (stats != nullptr) { *stats = executor.last_run_stats(); }
        return out;
    };
    const policy_outcome serial = run(1, 1, nullptr);
    for (const std::size_t threads : {1u, 2u, 8u}) {
        for (const std::size_t train_batch : {2u, 4u, 32u}) {
            fleet_run_stats stats;
            expect_identical_outcomes(serial, run(threads, train_batch, &stats),
                                      "grouped fleet");
            // Every chip is accounted for exactly once, and nothing diverged.
            EXPECT_EQ(stats.grouped_train_chips + stats.serial_train_chips,
                      c.chips.size())
                << threads << " threads, train_batch " << train_batch;
            EXPECT_EQ(stats.nonfinite_downgrades, 0u);
            // At 8 workers the fair-share cap shrinks claimed blocks to one
            // chip each, so grouping legitimately idles there.
            if (threads <= 2) {
                EXPECT_GT(stats.grouped_train_chips, 0u)
                    << threads << " threads, train_batch " << train_batch;
            }
        }
    }
}

TEST(FleetExecutor, StochasticGroupedTrainingMatchesSerialAcrossThreadsAndBatch) {
    // Dropout + batch-norm chips claimed in multi-chip blocks: every chip
    // still measures its accuracy_before and retrains in its own episode,
    // so the threads × train-batch matrix collapses to the serial result.
    train_case c = make_stochastic_case();
    const fixed_policy policy(0.5, 0.7);
    const auto run = [&](fleet_executor_config cfg) {
        fleet_executor executor(*c.model, c.pretrained, c.train_data, c.test_data, c.array,
                                c.trainer_cfg, cfg);
        return executor.run(policy, c.chips);
    };
    const policy_outcome serial = run({});
    for (const std::size_t threads : {1u, 2u}) {
        for (const std::size_t train_batch : {2u, 4u}) {
            expect_identical_outcomes(
                serial,
                run(fleet_executor_config{.threads = threads, .train_batch_chips = train_batch}),
                "stochastic grouped fleet");
        }
    }
}

/// Policy whose allocation alternates per chip — no two fleet-adjacent chips
/// can share a same-allocation group.
class alternating_policy : public retraining_policy {
public:
    explicit alternating_policy(double target) : target_(target) {}
    std::string name() const override { return "alternating"; }
    double accuracy_target() const override { return target_; }
    epoch_allocation allocate(const chip_view& view) const override {
        epoch_allocation alloc;
        alloc.epochs = view.index % 2 == 0 ? 0.5 : 0.25;
        return alloc;
    }

private:
    double target_ = 0.0;
};

TEST(FleetExecutor, MismatchedAllocationsDowngradeLoudlyAndMatchSerial) {
    train_case c = make_mlp_case();
    const alternating_policy policy(0.8);
    fleet_executor serial_exec(*c.model, c.pretrained, c.train_data, c.test_data, c.array,
                               c.trainer_cfg, fleet_executor_config{});
    const policy_outcome serial = serial_exec.run(policy, c.chips);

    fleet_executor grouped_exec(
        *c.model, c.pretrained, c.train_data, c.test_data, c.array, c.trainer_cfg,
        fleet_executor_config{.train_batch_chips = 4});
    const policy_outcome grouped = grouped_exec.run(policy, c.chips);
    expect_identical_outcomes(serial, grouped, "alternating");
    const fleet_run_stats& stats = grouped_exec.last_run_stats();
    // Every chip is isolated by allocation mismatch → all serial, all counted.
    EXPECT_EQ(stats.grouped_train_chips, 0u);
    EXPECT_EQ(stats.alloc_downgrades, c.chips.size());
    EXPECT_EQ(stats.serial_train_chips, c.chips.size());
}

TEST(FleetExecutor, NonfiniteDivergenceIsIdenticalAtEveryTrainBatch) {
    // A divergent learning rate drives every chip non-finite within a few
    // steps. Each chip ends hit_nonfinite exactly as it does alone — on the
    // MLP and through VGG's conv skips (Inf/NaN weights and gradients) —
    // with no downgrade anywhere.
    for (train_case (*make)() : {&make_mlp_case, &make_vgg_case}) {
        train_case c = make();
        c.trainer_cfg.learning_rate = 1e15;
        const fixed_policy policy(0.5, 0.8);
        const auto run = [&](std::size_t train_batch, fleet_run_stats& stats) {
            fleet_executor executor(
                *c.model, c.pretrained, c.train_data, c.test_data, c.array, c.trainer_cfg,
                fleet_executor_config{.train_batch_chips = train_batch});
            const policy_outcome out = executor.run(policy, c.chips);
            stats = executor.last_run_stats();
            return out;
        };
        fleet_run_stats alone_stats;
        const policy_outcome alone = run(1, alone_stats);
        EXPECT_GT(alone_stats.serial_nonfinite_chips, 0u);
        for (const std::size_t train_batch : {2u, 8u}) {
            fleet_run_stats stats;
            expect_identical_outcomes(alone, run(train_batch, stats), "nonfinite");
            EXPECT_EQ(stats.nonfinite_downgrades, 0u);
            EXPECT_EQ(stats.grouped_train_chips, c.chips.size()) << train_batch;
            EXPECT_EQ(stats.serial_nonfinite_chips, alone_stats.serial_nonfinite_chips);
        }
    }
}

}  // namespace
}  // namespace reduce
