// Tests for chip_tuner and fleet_executor: thread-count independence of the
// parallel fan-out, sink/progress ordering, the oracle's stop at its target,
// input validation, and the policy invariants over random fleets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/fleet_executor.h"
#include "core/policy.h"
#include "core/workload.h"
#include "data/loader.h"
#include "fault/scenario.h"
#include "util/error.h"
#include "util/rng.h"

namespace reduce {
namespace {

void expect_identical(const policy_outcome& a, const policy_outcome& b) {
    EXPECT_DOUBLE_EQ(a.accuracy_constraint, b.accuracy_constraint);
    ASSERT_EQ(a.chips.size(), b.chips.size());
    for (std::size_t i = 0; i < a.chips.size(); ++i) {
        const chip_outcome& x = a.chips[i];
        const chip_outcome& y = b.chips[i];
        EXPECT_EQ(x.chip_id, y.chip_id) << "chip " << i;
        // Exact (bit-level) equality is the contract: both paths must run the
        // same float operations in the same order.
        EXPECT_EQ(x.nominal_fault_rate, y.nominal_fault_rate) << "chip " << i;
        EXPECT_EQ(x.effective_fault_rate, y.effective_fault_rate) << "chip " << i;
        EXPECT_EQ(x.masked_weight_fraction, y.masked_weight_fraction) << "chip " << i;
        EXPECT_EQ(x.epochs_allocated, y.epochs_allocated) << "chip " << i;
        EXPECT_EQ(x.epochs_run, y.epochs_run) << "chip " << i;
        EXPECT_EQ(x.accuracy_before, y.accuracy_before) << "chip " << i;
        EXPECT_EQ(x.final_accuracy, y.final_accuracy) << "chip " << i;
        EXPECT_EQ(x.meets_constraint, y.meets_constraint) << "chip " << i;
        EXPECT_EQ(x.selection_failed, y.selection_failed) << "chip " << i;
    }
}

class FleetExecutorFixture : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        shared_ = new workload(make_standard_workload(make_test_workload_config()));
        fleet_config fc;
        fc.num_chips = 4;
        fc.rate_lo = 0.05;
        fc.rate_hi = 0.3;
        fc.seed = 91;
        fleet_ = new std::vector<chip>(make_fleet(shared_->array, fc));
        fleet_executor executor(*shared_->model, shared_->pretrained, shared_->train_data,
                                shared_->test_data, shared_->array, shared_->trainer_cfg);
        resilience_config rc;
        rc.fault_rates = {0.0, 0.15, 0.3};
        rc.repeats = 2;
        rc.max_epochs = 3.0;
        table_ = new resilience_table(executor.analyze(rc));
    }
    static void TearDownTestSuite() {
        delete shared_;
        delete fleet_;
        delete table_;
        shared_ = nullptr;
        fleet_ = nullptr;
        table_ = nullptr;
    }

    workload& w() { return *shared_; }
    const std::vector<chip>& fleet() { return *fleet_; }
    const resilience_table& table() { return *table_; }

    fleet_executor make_executor(std::size_t threads = 1) {
        return fleet_executor(*shared_->model, shared_->pretrained, shared_->train_data,
                              shared_->test_data, shared_->array, shared_->trainer_cfg,
                              fleet_executor_config{.threads = threads});
    }

    selector_config sel_config() {
        selector_config sel;
        sel.accuracy_target = 0.85;
        return sel;
    }

    static workload* shared_;
    static std::vector<chip>* fleet_;
    static resilience_table* table_;
};

workload* FleetExecutorFixture::shared_ = nullptr;
std::vector<chip>* FleetExecutorFixture::fleet_ = nullptr;
resilience_table* FleetExecutorFixture::table_ = nullptr;

TEST_F(FleetExecutorFixture, ReducePolicyCoversFleet) {
    const policy_outcome outcome =
        make_executor().run(reduce_policy(table(), sel_config()), fleet(), "reduce-max");
    EXPECT_EQ(outcome.policy_name, "reduce-max");
    ASSERT_EQ(outcome.chips.size(), fleet().size());
    for (const chip_outcome& c : outcome.chips) {
        EXPECT_GE(c.epochs_run, 0.0);
        EXPECT_GE(c.final_accuracy, 0.0);
        EXPECT_LE(c.final_accuracy, 1.0);
        EXPECT_EQ(c.meets_constraint, c.final_accuracy >= 0.85);
    }
    EXPECT_GE(outcome.fraction_meeting(), 0.0);
    EXPECT_LE(outcome.fraction_meeting(), 1.0);
    EXPECT_NEAR(outcome.mean_epochs() * static_cast<double>(fleet().size()),
                outcome.total_epochs(), 1e-9);
}

TEST_F(FleetExecutorFixture, FixedPolicyRunsRequestedEpochs) {
    const policy_outcome outcome = make_executor().run(fixed_policy(0.5, 0.85), fleet());
    for (const chip_outcome& c : outcome.chips) {
        EXPECT_DOUBLE_EQ(c.epochs_allocated, 0.5);
        // steps quantization can push epochs_run slightly above allocation
        EXPECT_NEAR(c.epochs_run, 0.5, 0.2);
    }
}

TEST_F(FleetExecutorFixture, ZeroEpochFixedPolicyIsEvaluationOnly) {
    const policy_outcome outcome = make_executor().run(fixed_policy(0.0, 0.85), fleet());
    for (const chip_outcome& c : outcome.chips) {
        EXPECT_DOUBLE_EQ(c.epochs_run, 0.0);
        EXPECT_DOUBLE_EQ(c.final_accuracy, c.accuracy_before);
    }
}

TEST_F(FleetExecutorFixture, MoreEpochsNeverHurtOnAverage) {
    fleet_executor executor = make_executor();
    const policy_outcome low = executor.run(fixed_policy(0.1, 0.85), fleet());
    const policy_outcome high = executor.run(fixed_policy(2.0, 0.85), fleet());
    double low_mean = 0.0;
    double high_mean = 0.0;
    for (std::size_t i = 0; i < fleet().size(); ++i) {
        low_mean += low.chips[i].final_accuracy;
        high_mean += high.chips[i].final_accuracy;
    }
    EXPECT_GE(high_mean, low_mean - 0.02);  // small tolerance for noise
    EXPECT_GE(high.fraction_meeting(), low.fraction_meeting() - 1e-9);
}

TEST(PolicyOutcome, Aggregates) {
    policy_outcome outcome;
    outcome.chips.push_back({.epochs_run = 1.0, .final_accuracy = 0.9,
                             .meets_constraint = true});
    outcome.chips.push_back({.epochs_run = 3.0, .final_accuracy = 0.8,
                             .meets_constraint = false});
    EXPECT_DOUBLE_EQ(outcome.total_epochs(), 4.0);
    EXPECT_DOUBLE_EQ(outcome.mean_epochs(), 2.0);
    EXPECT_DOUBLE_EQ(outcome.fraction_meeting(), 0.5);
    const policy_outcome empty;
    EXPECT_DOUBLE_EQ(empty.mean_epochs(), 0.0);
    EXPECT_DOUBLE_EQ(empty.fraction_meeting(), 0.0);
}

TEST_F(FleetExecutorFixture, OutcomesAreThreadCountIndependent) {
    const reduce_policy reduce(table(), sel_config());
    const fixed_policy fixed(0.4, 0.85);
    const policy_outcome reduce_serial = make_executor(1).run(reduce, fleet());
    const policy_outcome fixed_serial = make_executor(1).run(fixed, fleet());
    for (const std::size_t threads : {2u, 8u}) {
        fleet_executor executor = make_executor(threads);
        expect_identical(reduce_serial, executor.run(reduce, fleet()));
        expect_identical(fixed_serial, executor.run(fixed, fleet()));
    }
}

TEST_F(FleetExecutorFixture, OutcomesAndSnapshotsAreWorkerCountIndependent) {
    // Fleet workers (1 vs 4) must reproduce the serial outcomes AND stream
    // byte-identical tuned snapshots (parameters and state buffers) to the
    // model sink.
    const reduce_policy reduce(table(), sel_config());
    const auto run_with = [&](std::size_t workers) {
        fleet_executor executor = make_executor(workers);
        std::vector<model_snapshot> snaps;
        executor.set_model_sink(
            [&](const chip&, const model_snapshot& snap) { snaps.push_back(snap); });
        policy_outcome outcome = executor.run(reduce, fleet());
        return std::make_pair(std::move(outcome), std::move(snaps));
    };
    const auto [ref_outcome, ref_snaps] = run_with(1);
    ASSERT_EQ(ref_snaps.size(), fleet().size());
    const auto [outcome, snaps] = run_with(4);
    expect_identical(ref_outcome, outcome);
    ASSERT_EQ(snaps.size(), ref_snaps.size());
    for (std::size_t i = 0; i < snaps.size(); ++i) {
        ASSERT_EQ(snaps[i].size(), ref_snaps[i].size());
        for (std::size_t p = 0; p < snaps[i].size(); ++p) {
            EXPECT_TRUE(snaps[i].values[p] == ref_snaps[i].values[p])
                << "chip " << i << " param " << p;
        }
        EXPECT_EQ(snaps[i].state.size(), ref_snaps[i].state.size());
        for (std::size_t s = 0; s < snaps[i].state.size(); ++s) {
            EXPECT_TRUE(snaps[i].state[s] == ref_snaps[i].state[s])
                << "chip " << i << " state " << s;
        }
    }
}

TEST_F(FleetExecutorFixture, RunNameDefaultsToPolicyName) {
    const fixed_policy policy(0.0, 0.85, "my-fixed");
    fleet_executor executor = make_executor();
    EXPECT_EQ(executor.run(policy, fleet()).policy_name, "my-fixed");
    EXPECT_EQ(executor.run(policy, fleet(), "override").policy_name, "override");
}

TEST_F(FleetExecutorFixture, SinksFireInFleetOrderAtAnyThreadCount) {
    for (const std::size_t threads : {1u, 4u}) {
        fleet_executor executor = make_executor(threads);
        std::vector<std::size_t> seen_ids;
        executor.set_model_sink([&](const chip& c, const model_snapshot& snap) {
            seen_ids.push_back(c.id);
            EXPECT_EQ(snap.size(), w().pretrained.size());
        });
        (void)executor.run(fixed_policy(0.1, 0.85), fleet());
        ASSERT_EQ(seen_ids.size(), fleet().size());
        for (std::size_t i = 0; i < fleet().size(); ++i) {
            EXPECT_EQ(seen_ids[i], fleet()[i].id) << "threads=" << threads;
        }
    }
}

TEST_F(FleetExecutorFixture, ProgressReportsEveryChipExactlyOnce) {
    fleet_executor executor = make_executor(2);
    std::vector<std::size_t> completed_counts;
    std::vector<std::size_t> chip_ids;
    executor.set_progress_sink(
        [&](std::size_t completed, std::size_t total, const chip_outcome& outcome) {
            EXPECT_EQ(total, fleet().size());
            completed_counts.push_back(completed);
            chip_ids.push_back(outcome.chip_id);
        });
    (void)executor.run(fixed_policy(0.1, 0.85), fleet());
    ASSERT_EQ(completed_counts.size(), fleet().size());
    // Completion order is timing-dependent, but the count set and the chip
    // set are not.
    std::sort(completed_counts.begin(), completed_counts.end());
    std::sort(chip_ids.begin(), chip_ids.end());
    for (std::size_t i = 0; i < fleet().size(); ++i) {
        EXPECT_EQ(completed_counts[i], i + 1);
        EXPECT_EQ(chip_ids[i], fleet()[i].id);
    }
}

TEST_F(FleetExecutorFixture, PrototypeModelIsNeverMutated) {
    // The executor clones per worker; the shared prototype must stay bitwise
    // intact through a run — no restore needed afterwards.
    restore_parameters(w().model->parameters(), w().pretrained);
    fleet_executor executor = make_executor(2);
    (void)executor.run(fixed_policy(0.3, 0.85), fleet());
    for (std::size_t i = 0; i < w().pretrained.size(); ++i) {
        EXPECT_TRUE(w().model->parameters()[i]->value == w().pretrained.values[i]);
        EXPECT_FALSE(w().model->parameters()[i]->has_mask());
    }
}

TEST_F(FleetExecutorFixture, OracleChargesAtMostTheBudgetAndStopsAtTarget) {
    fleet_executor executor = make_executor();
    const oracle_policy policy(table(), 0.85);
    const policy_outcome outcome = executor.run(policy, fleet());
    ASSERT_EQ(outcome.chips.size(), fleet().size());
    for (const chip_outcome& c : outcome.chips) {
        EXPECT_DOUBLE_EQ(c.epochs_allocated, table().max_epochs());
        EXPECT_LE(c.epochs_run, table().max_epochs() + 1e-9);
        if (c.meets_constraint) {
            // The charged amount is the first checkpoint meeting the target,
            // and the reported accuracy is the accuracy at that checkpoint.
            EXPECT_GE(c.final_accuracy, 0.85);
        }
    }
    // The oracle is the cost lower bound among target-meeting policies: it
    // never charges more than the fixed-at-budget baseline.
    const policy_outcome full =
        executor.run(fixed_policy(table().max_epochs(), 0.85), fleet());
    EXPECT_LE(outcome.total_epochs(), full.total_epochs() + 1e-9);
}

TEST_F(FleetExecutorFixture, ValidatesFleetAndConstraint) {
    fleet_executor executor = make_executor();
    const fixed_policy policy(0.1, 0.85);
    EXPECT_THROW((void)executor.run(policy, {}), error);
    EXPECT_THROW((void)executor.run(fixed_policy(-1.0, 0.85), fleet()), error);

    // A policy reporting a target outside [0, 1] is rejected up front.
    class bad_target_policy : public retraining_policy {
    public:
        explicit bad_target_policy(double target) : target_(target) {}
        std::string name() const override { return "bad"; }
        double accuracy_target() const override { return target_; }
        epoch_allocation allocate(const chip_view&) const override { return {}; }

    private:
        double target_;
    };
    for (const double target : {-0.2, 1.2, 1.5}) {
        EXPECT_THROW((void)executor.run(bad_target_policy(target), fleet()), error) << target;
    }
}

TEST_F(FleetExecutorFixture, ChipTunerRecoversFromMidTuneFailure) {
    // A tuner whose training throws must come back clean: masks cleared,
    // weights restored, next tune unaffected (the RAII guard contract).
    chip_tuner tuner(*w().model, w().pretrained, w().train_data, w().test_data, w().array,
                     w().trainer_cfg);
    epoch_allocation ok;
    ok.epochs = 0.2;
    const chip_outcome before = tuner.tune(fleet()[0], ok, 0.85, 0.1);

    epoch_allocation bad;
    bad.epochs = -1.0;  // the trainer rejects this AFTER masks were attached
    EXPECT_THROW((void)tuner.tune(fleet()[0], bad, 0.85, 0.1), error);

    const chip_outcome after = tuner.tune(fleet()[0], ok, 0.85, 0.1);
    EXPECT_EQ(before.final_accuracy, after.final_accuracy);
    EXPECT_EQ(before.accuracy_before, after.accuracy_before);
}

TEST_F(FleetExecutorFixture, OracleStopMatchesTheReportedAccuracyAndCounters) {
    // Regression: a chip that meets its target before the budget must
    // deploy the model behind the reported accuracy, rollbacks included,
    // and count only the events of the charged run — not the strike at
    // 2.9 that a run charged at 2.5 never reaches.
    fleet_config fc;
    fc.num_chips = 1;
    fc.rate_lo = 0.3;
    fc.rate_hi = 0.5;
    fc.seed = 99;
    const std::vector<chip> chips = make_fleet(w().array, fc);
    fat_config cfg = w().trainer_cfg;
    cfg.learning_rate = 34.69;  // diverges mid-run, recovers at a halved rate
    chip_tuner tuner(*w().model, w().pretrained, w().train_data, w().test_data, w().array, cfg);
    tuner.set_capture_tuned(true);
    tuner.set_scenario(parse_scenario("strike@2.9:0.05;mode=recover;rollback=8"));
    epoch_allocation alloc;
    alloc.epochs = 3.0;
    alloc.train_to_target = true;
    const chip_outcome out = tuner.tune(chips[0], alloc, 0.75, 0.1);
    // The case the regression needs: rolled back, then met the target
    // before the strike.
    ASSERT_TRUE(out.meets_constraint);
    ASSERT_GT(out.rollbacks, 0u);
    ASSERT_LT(out.epochs_run, 2.9);
    EXPECT_EQ(out.events_applied, 0u);

    std::unique_ptr<sequential> deployed = clone_model(*w().model);
    restore_model(*deployed, tuner.take_tuned());
    EXPECT_EQ(evaluate_model(*deployed, w().test_data, cfg), out.final_accuracy);
}

TEST_F(FleetExecutorFixture, OracleStopAtAnEventStopCapturesThePostEventModel) {
    // Regression: when the first point meeting the target is an event stop,
    // it records the POST-event accuracy, so the captured model must be the
    // post-event one. In both cases the event is not a checkpoint of the
    // budget's grid.
    struct replay_case {
        std::uint64_t fleet_seed;
        std::size_t chips;
        double rate_hi;
        double learning_rate;
        const char* scenario;
        double budget;
        double constraint;
        std::size_t chip;
        double charged;
    };
    for (const replay_case& rc : {
             replay_case{99, 3, 0.2, 0.5 * std::pow(1.25, 6),
                         "strike@2.9:0.05;mode=recover;rollback=8", 3.0, 0.96, 0, 2.9},
             replay_case{2, 4, 0.4, 8.0, "strike@0.7:0.01;mode=restart", 2.0, 0.95, 1, 0.7},
         }) {
        SCOPED_TRACE(rc.scenario);
        fleet_config fc;
        fc.num_chips = rc.chips;
        fc.rate_lo = 0.05;
        fc.rate_hi = rc.rate_hi;
        fc.seed = rc.fleet_seed;
        const std::vector<chip> chips = make_fleet(w().array, fc);
        fat_config cfg = w().trainer_cfg;
        cfg.learning_rate = rc.learning_rate;
        chip_tuner tuner(*w().model, w().pretrained, w().train_data, w().test_data, w().array,
                         cfg);
        tuner.set_capture_tuned(true);
        tuner.set_scenario(parse_scenario(rc.scenario));
        epoch_allocation alloc;
        alloc.epochs = rc.budget;
        alloc.train_to_target = true;
        const chip_outcome out = tuner.tune(chips[rc.chip], alloc, rc.constraint, 0.1);
        // The case the regression needs: charged at the event.
        ASSERT_TRUE(out.meets_constraint);
        ASSERT_NEAR(out.epochs_run, rc.charged, 1e-9);
        ASSERT_EQ(out.events_applied, 1u);

        std::unique_ptr<sequential> deployed = clone_model(*w().model);
        restore_model(*deployed, tuner.take_tuned());
        EXPECT_EQ(evaluate_model(*deployed, w().test_data, cfg), out.final_accuracy);
    }
}

TEST_F(FleetExecutorFixture, PolicyInvariantsHoldOverSeededRandomFleets) {
    // The paper's invariants as properties, over every registry policy and
    // seeded random fleets, constraints and selector knobs. "Within the
    // allocation" is up to one loader step: a non-target run trains
    // steps_for_epochs(allocation) whole steps and reports them.
    const double step = 1.0 / static_cast<double>(
        data_loader(w().train_data, w().trainer_cfg.batch_size, 1).steps_per_epoch());
    const double budget = table().max_epochs();
    fleet_executor executor = make_executor(2);
    rng gen(8);
    std::size_t failed_selections = 0;
    for (int trial = 0; trial < 6; ++trial) {
        fleet_config fc;
        fc.num_chips = 2 + gen.uniform_index(5);
        fc.distribution = trial % 2 == 0 ? rate_distribution::uniform : rate_distribution::lognormal;
        fc.rate_lo = 0.3 * gen.uniform();
        fc.rate_hi = fc.rate_lo + 0.3 * gen.uniform();
        fc.seed = gen.next_u64();
        const std::vector<chip> chips = make_fleet(w().array, fc);
        policy_context ctx;
        ctx.table = &table();
        ctx.selector.accuracy_target = 0.6 + 0.39 * gen.uniform();
        ctx.selector.safety_factor = 1.0 + gen.uniform();
        ctx.selector.safety_margin = 0.5 * gen.uniform();
        ctx.fixed_epochs = 1.5 * gen.uniform();
        ctx.num_bins = 1 + gen.uniform_index(4);
        for (const std::string& name : policy_registry::global().names()) {
            SCOPED_TRACE("trial " + std::to_string(trial) + " policy " + name);
            const std::unique_ptr<retraining_policy> policy =
                policy_registry::global().make(name, ctx);
            const policy_outcome outcome = executor.run(*policy, chips);
            ASSERT_EQ(outcome.chips.size(), chips.size());
            for (const chip_outcome& c : outcome.chips) {
                EXPECT_LE(c.epochs_run, c.epochs_allocated + step + 1e-9) << "chip " << c.chip_id;
                EXPECT_EQ(c.meets_constraint, c.final_accuracy >= outcome.accuracy_constraint)
                    << "chip " << c.chip_id;
                if (c.selection_failed) {
                    ++failed_selections;
                    EXPECT_EQ(c.epochs_allocated, budget) << "chip " << c.chip_id;
                }
                // Only the fixed baseline ignores the table; every table
                // policy stays inside its budget.
                if (name != "fixed") {
                    EXPECT_LE(c.epochs_allocated, budget) << "chip " << c.chip_id;
                }
            }
        }
    }
    EXPECT_GT(failed_selections, 0u);
}

}  // namespace
}  // namespace reduce
