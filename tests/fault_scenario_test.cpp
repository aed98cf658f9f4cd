// Tests for fault-event timelines (fault/scenario.h) and their plumbing
// through the trainer, the Step-1 sweep engine, and the fleet executor:
// the grammar (canonical round-trips, typed rejections, a seeded fuzz),
// seed-driven event determinism, fingerprint gating (scenario-free configs
// keep their historical fingerprints), the full execution-knob determinism
// matrix under a live timeline, rollback / restart recovery semantics, and
// loud non-finite divergence detection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <string>
#include <vector>

#include "core/fleet_executor.h"
#include "core/policy.h"
#include "core/resilience.h"
#include "core/workload.h"
#include "fault/mask_builder.h"
#include "fault/scenario.h"
#include "fuzz_mutations.h"
#include "nn/norm.h"
#include "nn/serialize.h"
#include "util/error.h"
#include "util/rng.h"

namespace reduce {
namespace {

TEST(ScenarioGrammar, ParsesEventsAndSettings) {
    const scenario_config s = parse_scenario(
        "repair@1.2;strike@0.6:0.05;accrue@0.9:0.02;mode=restart;rollback=3;seed=9;"
        "kinds=stuck-zero");
    ASSERT_EQ(s.events.size(), 3u);
    // Events come back sorted by epoch regardless of spec order.
    EXPECT_EQ(s.events[0].kind, fault_event_kind::strike);
    EXPECT_DOUBLE_EQ(s.events[0].epoch, 0.6);
    EXPECT_DOUBLE_EQ(s.events[0].magnitude, 0.05);
    EXPECT_EQ(s.events[1].kind, fault_event_kind::accrue);
    EXPECT_EQ(s.events[2].kind, fault_event_kind::repair);
    EXPECT_DOUBLE_EQ(s.events[2].magnitude, 0.0);
    EXPECT_EQ(s.mode, recovery_mode::restart);
    EXPECT_EQ(s.rollback_budget, 3u);
    EXPECT_EQ(s.seed, 9u);
    EXPECT_EQ(s.kind_mix, fault_kind_mix::all_stuck_zero);
    EXPECT_FALSE(s.empty());
}

TEST(ScenarioGrammar, EmptySpecIsTheEmptyScenario) {
    const scenario_config s = parse_scenario("");
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s, scenario_config{});
    EXPECT_EQ(scenario_to_string(s), "");
}

TEST(ScenarioGrammar, CanonicalStringRoundTrips) {
    const scenario_config s =
        parse_scenario("strike@0.25:0.05;repair@0.4;mode=recover;rollback=1;seed=42");
    const std::string canon = scenario_to_string(s);
    EXPECT_EQ(parse_scenario(canon), s);
    // Canonical form is a fixed point — re-canonicalizing changes nothing
    // (this is the exact string the resilience fingerprint hashes).
    EXPECT_EQ(scenario_to_string(parse_scenario(canon)), canon);
}

TEST(ScenarioGrammar, RejectsMalformedSpecs) {
    EXPECT_THROW(parse_scenario("explode@0.5:0.1"), error);       // unknown kind
    EXPECT_THROW(parse_scenario("strike0.5"), error);             // missing '@'
    EXPECT_THROW(parse_scenario("strike@0.0:0.1"), error);        // epoch not positive
    EXPECT_THROW(parse_scenario("strike@-1:0.1"), error);         // negative epoch
    EXPECT_THROW(parse_scenario("strike@0.5:1.5"), error);        // magnitude > 1
    EXPECT_THROW(parse_scenario("strike@0.5:0.1;accrue@0.5:0.1"), error);  // dup epoch
    EXPECT_THROW(parse_scenario("mode=sideways"), error);         // unknown mode
    EXPECT_THROW(parse_scenario("tempo=fast"), error);            // unknown setting
    EXPECT_THROW(parse_scenario("strike@oops:0.1"), error);       // non-numeric epoch
}

TEST(ScenarioGrammar, IntegerSettingsAreBareDigitsThatFit) {
    EXPECT_EQ(parse_scenario("strike@1:0.1;seed=18446744073709551615").seed,
              0xFFFFFFFFFFFFFFFFull);
    EXPECT_EQ(parse_scenario("strike@1:0.1;rollback=007").rollback_budget, 7u);
    // strtoull would negate a sign, skip whitespace and saturate overflow;
    // each is a typed rejection instead.
    for (const std::string spec :
         {"rollback=-1", "rollback=+1", "rollback= 1", "rollback=\t1", "seed=-5",
          "seed=18446744073709551616", "seed=99999999999999999999999", "seed=", "seed=0x10",
          "rollback=1 "}) {
        EXPECT_THROW(parse_scenario("strike@1:0.1;" + spec), invalid_argument_error) << spec;
    }
}

TEST(ScenarioGrammar, NumbersFillTheirWholeToken) {
    // An embedded NUL ends the C string early; the bytes after it count.
    EXPECT_THROW(parse_scenario(std::string("strike@1:0.1;seed=5\0x", 22)),
                 invalid_argument_error);
    EXPECT_THROW(parse_scenario(std::string("strike@1\0:0.1", 14)), invalid_argument_error);
    EXPECT_THROW(parse_scenario(std::string("strike@1:0.1\0", 13)), invalid_argument_error);
    // A repair's magnitude has no canonical spelling; an infinite epoch is
    // no boundary.
    EXPECT_THROW(parse_scenario("repair@1:0.5"), invalid_argument_error);
    EXPECT_THROW(parse_scenario("strike@inf:0.1"), error);
    EXPECT_THROW(parse_scenario("strike@1e400:0.1"), error);
}

/// Parses `spec`: a typed error (false), or a scenario whose canonical
/// string is a fixed point of parse → to_string and parses back to the same
/// scenario whenever it has events (true). Any other exception escapes and
/// fails the test.
bool typed_error_or_canonical(const std::string& spec, const std::string& what) {
    scenario_config s;
    try {
        s = parse_scenario(spec);
    } catch (const error&) {
        return false;
    }
    const std::string canon = scenario_to_string(s);
    const scenario_config back = parse_scenario(canon);
    EXPECT_EQ(scenario_to_string(back), canon) << what;
    EXPECT_EQ(back.empty(), s.empty()) << what;
    if (!s.empty()) { EXPECT_EQ(back, s) << what << ": '" << canon << "'"; }
    return true;
}

TEST(ScenarioFuzz, GrammarYieldsTypedErrorsOrCanonicalFixedPoints) {
    const std::vector<std::string> seeds = {
        "strike@0.25:0.05;repair@0.4;mode=recover;rollback=1;seed=42",
        "repair@1.2;strike@0.6:0.05;accrue@0.9:0.02;mode=restart;rollback=3;seed=9;"
        "kinds=stuck-zero",
        scenario_to_string(parse_scenario("accrue@2:0.03;strike@0.1:1;kinds=random-stuck")),
        "strike@1",
    };
    for (const std::string& seed : seeds) { ASSERT_TRUE(typed_error_or_canonical(seed, seed)); }
    // The grammar-specific mutation: an extreme spelling in place of one
    // digit run — overflowing, signed, padded, non-finite, hex, subnormal.
    const std::vector<std::string> extremes = {
        "18446744073709551616", "99999999999999999999999", "-1", "+7", " 7", "1e400",
        "1e-400", "inf", "nan", "-0", "0x1p-2", "4.9e-324", "", "1.5", "0"};
    rng gen(20261017);
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    for (int trial = 0; trial < 5000; ++trial) {
        std::string spec = seeds[gen.uniform_index(seeds.size())];
        fuzz::mutate(gen, spec, seeds, [&](std::string& b) {
            std::vector<std::size_t> starts;
            for (std::size_t i = 0; i < b.size(); ++i) {
                if (std::isdigit(static_cast<unsigned char>(b[i])) != 0 &&
                    (i == 0 || std::isdigit(static_cast<unsigned char>(b[i - 1])) == 0)) {
                    starts.push_back(i);
                }
            }
            if (starts.empty()) { return; }
            const std::size_t at = starts[gen.uniform_index(starts.size())];
            std::size_t end = at;
            while (end < b.size() && std::isdigit(static_cast<unsigned char>(b[end])) != 0) {
                ++end;
            }
            b.replace(at, end - at, extremes[gen.uniform_index(extremes.size())]);
        });
        ++(typed_error_or_canonical(spec, "trial " + std::to_string(trial)) ? accepted
                                                                            : rejected);
    }
    // The mutations must exercise both outcomes, or the test proves little.
    EXPECT_GT(rejected, 1000u);
    EXPECT_GT(accepted, 500u);
}

TEST(TimelineSeeding, EpisodeSeedsAreAPureFunctionOfCoordinates) {
    scenario_config s = parse_scenario("strike@0.5:0.05");
    s.seed = 1234;
    EXPECT_EQ(timeline_for_cell(s, 2, 1).episode_seed, mix_seed(s.seed, 2, 1));
    EXPECT_EQ(timeline_for_cell(s, 2, 1).episode_seed,
              timeline_for_cell(s, 2, 1).episode_seed);
    EXPECT_NE(timeline_for_cell(s, 2, 1).episode_seed,
              timeline_for_cell(s, 1, 2).episode_seed);
    EXPECT_EQ(timeline_for_chip(s, 7).episode_seed, mix_seed(s.seed, 7));
    EXPECT_NE(timeline_for_chip(s, 7).episode_seed, timeline_for_chip(s, 8).episode_seed);
}

TEST(ApplyFaultEvent, StrikeInjectsExactCountDeterministically) {
    const scenario_config s = parse_scenario("strike@0.5:0.1");
    const fault_timeline timeline{s, 99};
    fault_grid grid(16, 16);
    const std::size_t changed = apply_fault_event(grid, timeline, 0);
    EXPECT_EQ(changed, static_cast<std::size_t>(std::llround(0.1 * 256.0)));
    EXPECT_EQ(grid.faulty_count(), changed);
    // Replaying the same event on a fresh copy of the pre-event grid lands
    // on the same PEs with the same kinds — the rollback/re-lease contract.
    fault_grid replay(16, 16);
    (void)apply_fault_event(replay, timeline, 0);
    EXPECT_EQ(replay, grid);
    // A different episode lands elsewhere.
    fault_grid other(16, 16);
    (void)apply_fault_event(other, fault_timeline{s, 100}, 0);
    EXPECT_NE(other, grid);
}

TEST(ApplyFaultEvent, AccrualOnlyHitsHealthyPEsAndGrowsMonotonically) {
    const scenario_config s = parse_scenario("accrue@0.3:0.2;accrue@0.6:0.2");
    const fault_timeline timeline{s, 7};
    fault_grid grid(8, 8);
    grid.set(3, 3, pe_fault::stuck_weight_max);
    const std::size_t before = grid.faulty_count();
    const std::size_t first = apply_fault_event(grid, timeline, 0);
    EXPECT_EQ(grid.at(3, 3), pe_fault::stuck_weight_max);  // pre-existing untouched
    EXPECT_EQ(grid.faulty_count(), before + first);
    const std::size_t second = apply_fault_event(grid, timeline, 1);
    EXPECT_EQ(grid.faulty_count(), before + first + second);  // strictly accrues
    EXPECT_GT(second, 0u);
}

TEST(ApplyFaultEvent, RepairConvertsEveryStuckPEToBypass) {
    const scenario_config s = parse_scenario("repair@0.5");
    fault_grid grid(4, 4);
    grid.set(0, 0, pe_fault::stuck_weight_zero);
    grid.set(1, 1, pe_fault::stuck_weight_max);
    grid.set(2, 2, pe_fault::bypassed);
    const std::size_t changed = apply_fault_event(grid, fault_timeline{s, 5}, 0);
    EXPECT_EQ(changed, 2u);  // the already-bypassed PE is not a state change
    EXPECT_EQ(grid.at(0, 0), pe_fault::bypassed);
    EXPECT_EQ(grid.at(1, 1), pe_fault::bypassed);
    EXPECT_EQ(grid.at(2, 2), pe_fault::bypassed);
    EXPECT_EQ(grid.faulty_count(), 3u);
}

TEST(ApplyFaultEvent, InjectedKindsFollowTheMix) {
    scenario_config s = parse_scenario("strike@0.5:0.25;kinds=stuck-zero");
    fault_grid grid(8, 8);
    (void)apply_fault_event(grid, fault_timeline{s, 3}, 0);
    for (std::size_t r = 0; r < 8; ++r) {
        for (std::size_t c = 0; c < 8; ++c) {
            if (is_faulty(grid.at(r, c))) {
                EXPECT_EQ(grid.at(r, c), pe_fault::stuck_weight_zero);
            }
        }
    }
}

TEST(ScenarioFingerprint, FeedsTheFingerprintOnlyWhenActive) {
    resilience_config base;
    base.fault_rates = {0.0, 0.3};
    base.repeats = 2;
    base.max_epochs = 0.5;
    base.seed = 77;
    base.context = "scenario-fp-test";
    const std::string fp = resilience_fingerprint(base);

    // An explicitly-parsed empty scenario IS the default — scenario-free
    // configs keep their historical fingerprints (and cache keys, and
    // journal identities).
    resilience_config explicit_empty = base;
    explicit_empty.scenario = parse_scenario("");
    EXPECT_EQ(resilience_fingerprint(explicit_empty), fp);

    // Any live timeline changes the fingerprint, and every scenario knob is
    // load-bearing: events, mode, rollback budget, and the timeline seed.
    resilience_config with = base;
    with.scenario = parse_scenario("strike@0.25:0.05");
    const std::string fp_scenario = resilience_fingerprint(with);
    EXPECT_NE(fp_scenario, fp);

    resilience_config changed = with;
    changed.scenario.mode = recovery_mode::restart;
    EXPECT_NE(resilience_fingerprint(changed), fp_scenario);
    changed = with;
    changed.scenario.rollback_budget += 1;
    EXPECT_NE(resilience_fingerprint(changed), fp_scenario);
    changed = with;
    changed.scenario.seed += 1;
    EXPECT_NE(resilience_fingerprint(changed), fp_scenario);
    changed = with;
    changed.scenario.events[0].magnitude = 0.06;
    EXPECT_NE(resilience_fingerprint(changed), fp_scenario);
}

/// Shares one (slow-to-build) workload across every scenario test below.
class ScenarioFixture : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        shared_ = new workload(make_standard_workload(make_test_workload_config()));
    }
    static void TearDownTestSuite() {
        delete shared_;
        shared_ = nullptr;
    }
    workload& w() { return *shared_; }

    resilience_analyzer make_analyzer() {
        return resilience_analyzer(*w().model, w().pretrained, w().train_data, w().test_data,
                                   w().array, w().trainer_cfg);
    }

    /// Sweep config with a two-event timeline alive inside the 0.5-epoch
    /// budget: a transient strike, then permanent accrual.
    resilience_config scenario_config_small() {
        resilience_config cfg;
        cfg.fault_rates = {0.0, 0.3};
        cfg.repeats = 2;
        cfg.max_epochs = 0.5;
        cfg.seed = 77;
        cfg.context = "scenario-sweep-test";
        cfg.scenario = parse_scenario("strike@0.2:0.05;accrue@0.35:0.03;seed=5");
        return cfg;
    }

    chip make_chip(double rate, std::uint64_t seed) const {
        random_fault_config rc;
        rc.fault_rate = rate;
        return chip{0, seed, rate, generate_random_faults(shared_->array, rc, seed)};
    }

    chip_tuner make_tuner() {
        return chip_tuner(*w().model, w().pretrained, w().train_data, w().test_data,
                          w().array, w().trainer_cfg);
    }

    static workload* shared_;
};

workload* ScenarioFixture::shared_ = nullptr;

TEST_F(ScenarioFixture, TimelineEventsActuallyChangeTheTable) {
    resilience_analyzer analyzer = make_analyzer();
    const resilience_config with = scenario_config_small();
    resilience_config without = with;
    without.scenario = scenario_config{};
    // Mid-run strikes must leave a mark on the artifact (extra eval points
    // at the event epochs, different post-event trajectories) — a timeline
    // that changes nothing would mean the hooks never fired.
    EXPECT_NE(analyzer.analyze(with, {}).to_json().dump(),
              analyzer.analyze(without, {}).to_json().dump());
}

TEST_F(ScenarioFixture, ScenarioSweepDeterminismMatrixGemmThreadsByWorkersByCellPartition) {
    // With a live timeline, intra-op gemm threads (1/2/8) × sweep workers
    // (1/4) × 2-way cell partition (analyze_cells + merge_into) must
    // all serialize byte-identically. Event sampling derives from
    // (scenario, cell coordinates) alone, so no execution knob may move a
    // single table byte.
    resilience_analyzer analyzer = make_analyzer();
    const resilience_config cfg = scenario_config_small();

    const std::string reference = analyzer.analyze(cfg, {}).to_json().dump();
    for (const std::size_t gemm_threads : {1u, 2u, 8u}) {
        for (const std::size_t workers : {1u, 4u}) {
            sweep_options opts;
            opts.threads = workers;
            opts.gemm_threads = gemm_threads;
            EXPECT_EQ(analyzer.analyze(cfg, opts).to_json().dump(), reference)
                << "workers=" << workers << " gemm_threads=" << gemm_threads;

            std::vector<sweep_cell> halves[2];
            const std::vector<sweep_cell> grid = enumerate_sweep_cells(cfg);
            for (std::size_t k = 0; k < grid.size(); ++k) { halves[k % 2].push_back(grid[k]); }
            resilience_table merged = analyzer.analyze_cells(cfg, halves[0], opts);
            resilience_table::merge_into(merged, analyzer.analyze_cells(cfg, halves[1], opts));
            EXPECT_EQ(merged.to_json().dump(), reference)
                << "partitioned: workers=" << workers << " gemm_threads=" << gemm_threads;
        }
    }
}

TEST_F(ScenarioFixture, StochasticModelScenarioSweepIsDeterministic) {
    // Timelines on a dropout + batch-norm model: mask swaps mid-run must
    // not desynchronize the per-cell dropout streams or leak running
    // statistics between cells — the matrix still collapses to one artifact.
    rng gen(21);
    sequential model;
    model.emplace<linear>(16, 32, gen);
    model.emplace<batch_norm1d>(32);
    model.emplace<relu_layer>();
    model.emplace<dropout>(0.2, gen.next_u64());
    model.emplace<linear>(32, 4, gen);
    fault_aware_trainer pretrainer(model, w().train_data, w().test_data, w().trainer_cfg);
    (void)pretrainer.train(1.0);
    const model_snapshot pretrained = snapshot_parameters(model.parameters());
    resilience_analyzer analyzer(model, pretrained, w().train_data, w().test_data, w().array,
                                 w().trainer_cfg);

    const resilience_config cfg = scenario_config_small();
    const std::string reference = analyzer.analyze(cfg, {}).to_json().dump();
    for (const std::size_t threads : {2u, 8u}) {
        sweep_options opts;
        opts.threads = threads;
        EXPECT_EQ(analyzer.analyze(cfg, opts).to_json().dump(), reference)
            << "stochastic: threads=" << threads;
    }
}

TEST_F(ScenarioFixture, TunerCountsEventsAndReplaysThemIdentically) {
    chip_tuner tuner = make_tuner();
    tuner.set_scenario(parse_scenario("strike@0.2:0.05;accrue@0.35:0.03"));
    const chip c = make_chip(0.1, 424);
    epoch_allocation alloc;
    alloc.epochs = 0.5;

    const chip_outcome first = tuner.tune(c, alloc, 0.85, c.nominal_fault_rate);
    EXPECT_EQ(first.events_applied, 2u);
    EXPECT_EQ(first.restarts, 0u);
    EXPECT_FALSE(first.hit_nonfinite);

    // The timeline is a pure function of (scenario, chip id): tuning the
    // same chip again — after the guard restored the pristine model — must
    // reproduce the outcome exactly, events included.
    const chip_outcome again = tuner.tune(c, alloc, 0.85, c.nominal_fault_rate);
    EXPECT_EQ(again.final_accuracy, first.final_accuracy);
    EXPECT_EQ(again.accuracy_before, first.accuracy_before);
    EXPECT_EQ(again.events_applied, first.events_applied);
    EXPECT_EQ(again.rollbacks, first.rollbacks);
}

TEST_F(ScenarioFixture, EventsBeyondTheBudgetNeverFire) {
    const chip c = make_chip(0.1, 424);
    epoch_allocation alloc;
    alloc.epochs = 0.5;

    chip_tuner plain = make_tuner();
    const chip_outcome baseline = plain.tune(c, alloc, 0.85, c.nominal_fault_rate);

    chip_tuner armed = make_tuner();
    armed.set_scenario(parse_scenario("strike@5.0:0.05"));
    const chip_outcome dormant = armed.tune(c, alloc, 0.85, c.nominal_fault_rate);
    EXPECT_EQ(dormant.events_applied, 0u);
    // A dormant timeline is byte-identical to no timeline at all.
    EXPECT_EQ(dormant.final_accuracy, baseline.final_accuracy);
    EXPECT_EQ(dormant.accuracy_before, baseline.accuracy_before);
    EXPECT_EQ(dormant.epochs_run, baseline.epochs_run);
}

TEST_F(ScenarioFixture, RecoverAndRestartModesDivergeAndAreBothCounted) {
    const chip c = make_chip(0.1, 77);
    epoch_allocation alloc;
    alloc.epochs = 0.5;

    chip_tuner recover = make_tuner();
    recover.set_scenario(parse_scenario("strike@0.2:0.1;mode=recover"));
    const chip_outcome rec = recover.tune(c, alloc, 0.85, c.nominal_fault_rate);
    EXPECT_EQ(rec.events_applied, 1u);
    EXPECT_EQ(rec.restarts, 0u);

    chip_tuner restart = make_tuner();
    restart.set_scenario(parse_scenario("strike@0.2:0.1;mode=restart"));
    const chip_outcome res = restart.tune(c, alloc, 0.85, c.nominal_fault_rate);
    EXPECT_EQ(res.events_applied, 1u);
    EXPECT_EQ(res.restarts, 1u);

    // Epoch-0 is pre-event, so both modes agree on accuracy_before.
    EXPECT_EQ(rec.accuracy_before, res.accuracy_before);
}

TEST_F(ScenarioFixture, RestartResetsToThePretrainedWeightsUnderTheUnionMask) {
    // The restart baseline's defining property, checked bitwise: at the
    // event, the model is reset to the pretrained weights under the
    // post-event union mask (masks only grow, so re-masking the pretrained
    // snapshot IS pretraining under the new map) with a fresh optimizer.
    // The trajectory's eval point at the event epoch must therefore equal
    // an independent evaluation of pretrained-weights-plus-union-mask.
    const chip c = make_chip(0.1, 77);
    const scenario_config sc = parse_scenario("strike@0.2:0.1;mode=restart");
    const fault_timeline timeline = timeline_for_chip(sc, c.id);
    const std::vector<double> grid = make_eval_grid(0.5, 1.0, 0.25, 0.25);
    fault_aware_trainer trainer(*w().model, w().train_data, w().test_data, w().trainer_cfg);

    fat_result result;
    {
        restore_parameters(w().model->parameters(), w().pretrained);
        fault_state_guard guard(*w().model, w().pretrained);
        fault_grid working = c.faults;
        attach_fault_masks(*w().model, w().array, working);
        train_event_hooks hooks;
        hooks.event_epochs = {0.2};
        hooks.mode = recovery_mode::restart;
        hooks.on_event = [&](std::size_t index) {
            apply_fault_event(working, timeline, index);
            guard.swap_masks(w().array, working);
        };
        result = trainer.train(0.5, grid, std::nullopt, &hooks);
    }
    EXPECT_EQ(result.restarts, 1u);
    EXPECT_EQ(result.events_applied, 1u);
    const auto at_event = std::find_if(
        result.trajectory.begin(), result.trajectory.end(),
        [](const training_point& p) { return p.epochs == 0.2; });
    ASSERT_NE(at_event, result.trajectory.end());

    // Independent replay of the event → union grid → evaluate pretrained.
    fault_grid expected = c.faults;
    (void)apply_fault_event(expected, timeline, 0);
    EXPECT_GT(expected.faulty_count(), c.faults.faulty_count());
    restore_parameters(w().model->parameters(), w().pretrained);
    attach_fault_masks(*w().model, w().array, expected);
    EXPECT_EQ(at_event->test_accuracy, trainer.evaluate());
    clear_fault_masks(*w().model);
    restore_parameters(w().model->parameters(), w().pretrained);
}

TEST_F(ScenarioFixture, DivergenceWithoutHooksStopsLoudlyWithZeroAccuracy) {
    // The trainer's always-on non-finite detection. A catastrophic
    // learning rate must end the run with hit_nonfinite and an exact 0.0 —
    // never a silently propagated NaN.
    rng gen(5);
    sequential model;
    model.emplace<linear>(16, 8, gen);
    model.emplace<relu_layer>();
    model.emplace<linear>(8, 4, gen);
    fat_config cfg = w().trainer_cfg;
    cfg.learning_rate = 1e18;
    fault_aware_trainer trainer(model, w().train_data, w().test_data, cfg);
    const fat_result result = trainer.train(0.5, make_eval_grid(0.5, 1.0, 0.25, 0.25));
    EXPECT_TRUE(result.hit_nonfinite);
    EXPECT_EQ(result.final_accuracy, 0.0);
    EXPECT_TRUE(std::isfinite(result.final_accuracy));
    EXPECT_EQ(result.rollbacks, 0u);  // no timeline → no rollback machinery
}

TEST_F(ScenarioFixture, RollbackBudgetIsSpentThenTheRunGivesUpLoudly) {
    // With a timeline in recover mode, divergence rolls back to the last
    // finite checkpoint (halving the learning rate each time) until the
    // budget is spent; a learning rate that diverges at ANY halving must
    // exhaust exactly the budget and then stop with hit_nonfinite.
    rng gen(6);
    sequential model;
    model.emplace<linear>(16, 8, gen);
    model.emplace<relu_layer>();
    model.emplace<linear>(8, 4, gen);
    fat_config cfg = w().trainer_cfg;
    cfg.learning_rate = 1e18;
    fault_aware_trainer trainer(model, w().train_data, w().test_data, cfg);

    train_event_hooks hooks;
    hooks.event_epochs = {0.25};
    hooks.on_event = [](std::size_t) {};  // the event itself is a no-op
    hooks.mode = recovery_mode::recover;
    hooks.rollback_budget = 2;
    const fat_result result =
        trainer.train(0.5, make_eval_grid(0.5, 1.0, 0.25, 0.25), std::nullopt, &hooks);
    EXPECT_EQ(result.rollbacks, 2u);
    EXPECT_TRUE(result.hit_nonfinite);
    EXPECT_EQ(result.final_accuracy, 0.0);
}

TEST_F(ScenarioFixture, RollbackRecoversWhenTheRetryIsTamer) {
    // A learning rate that is catastrophic once but fine after one halving:
    // the run must roll back exactly once and then FINISH (hit_nonfinite
    // false, full budget run, final accuracy from the tamer retry).
    rng gen(7);
    sequential model;
    model.emplace<linear>(16, 8, gen);
    model.emplace<relu_layer>();
    model.emplace<linear>(8, 4, gen);
    fat_config cfg = w().trainer_cfg;
    // Empirically: big enough to blow up dense float32 training, small
    // enough that halvings eventually tame it. If the first halving is not
    // enough the budget below still bounds the search.
    cfg.learning_rate = 1e4;
    fault_aware_trainer trainer(model, w().train_data, w().test_data, cfg);

    train_event_hooks hooks;
    hooks.event_epochs = {0.25};
    hooks.on_event = [](std::size_t) {};
    hooks.mode = recovery_mode::recover;
    hooks.rollback_budget = 30;  // ~2^-30 × 1e4 ≈ 1e-5: certainly tame
    const fat_result result =
        trainer.train(0.5, make_eval_grid(0.5, 1.0, 0.25, 0.25), std::nullopt, &hooks);
    EXPECT_FALSE(result.hit_nonfinite);
    EXPECT_GE(result.rollbacks, 1u);
    EXPECT_LT(result.rollbacks, 30u);
    EXPECT_TRUE(std::isfinite(result.final_accuracy));
    EXPECT_EQ(result.events_applied, 1u);
    // The full budget ran (epochs_run quantizes to whole loader steps).
    EXPECT_NEAR(result.epochs_run, 0.5, 0.1);
}

TEST_F(ScenarioFixture, ExecutorGroupsTimelineChipsAndMatchesKOne) {
    fleet_config fc;
    fc.num_chips = 4;
    fc.rate_lo = 0.05;
    fc.rate_hi = 0.3;
    fc.seed = 91;
    const std::vector<chip> fleet = make_fleet(w().array, fc);
    const fixed_policy policy(0.5, 0.85);
    const scenario_config scenario = parse_scenario("strike@0.2:0.05");

    const auto run_with = [&](std::size_t train_batch) {
        fleet_executor executor(*w().model, w().pretrained, w().train_data, w().test_data,
                                w().array, w().trainer_cfg,
                                fleet_executor_config{.threads = 2,
                                                      .train_batch_chips = train_batch,
                                                      .scenario = scenario});
        const policy_outcome outcome = executor.run(policy, fleet);
        return std::make_pair(outcome, executor.last_run_stats());
    };

    const auto [alone, alone_stats] = run_with(1);
    EXPECT_EQ(alone_stats.serial_train_chips, fleet.size());
    EXPECT_GE(alone_stats.timeline_events, fleet.size());  // ≥1 event per chip

    // Timeline chips are claimed and counted in groups like any others, and
    // every outcome equals the one-chip-per-claim run's.
    const auto [grouped, grouped_stats] = run_with(2);
    EXPECT_EQ(grouped_stats.scenario_downgrades, 0u);
    EXPECT_GT(grouped_stats.grouped_train_chips, 0u);
    EXPECT_EQ(grouped_stats.timeline_events, alone_stats.timeline_events);
    ASSERT_EQ(grouped.chips.size(), alone.chips.size());
    for (std::size_t i = 0; i < alone.chips.size(); ++i) {
        const chip_outcome& a = alone.chips[i];
        const chip_outcome& b = grouped.chips[i];
        EXPECT_EQ(a.final_accuracy, b.final_accuracy) << "chip " << i;
        EXPECT_EQ(a.accuracy_before, b.accuracy_before) << "chip " << i;
        EXPECT_EQ(a.epochs_run, b.epochs_run) << "chip " << i;
        EXPECT_EQ(a.events_applied, b.events_applied) << "chip " << i;
        EXPECT_EQ(a.rollbacks, b.rollbacks) << "chip " << i;
        EXPECT_EQ(a.restarts, b.restarts) << "chip " << i;
        EXPECT_EQ(a.hit_nonfinite, b.hit_nonfinite) << "chip " << i;
    }
}

}  // namespace
}  // namespace reduce
