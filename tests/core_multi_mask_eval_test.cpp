// Serial-vs-batched equivalence suite for the multi-mask evaluation engine:
// the evaluator must reproduce the serial restore → attach-masks →
// evaluate path BIT FOR BIT at every group size — over MLP, conv (including
// the VGG structural-zero lowering path), and batch-norm/dropout models,
// through ragged groups, duplicated chips, and chips with empty masks. Also
// pins fleet outcomes across thread counts and the stochastic-layer
// determinism fixes every episode depends on: the fault_state_guard's
// batch-norm statistic restore and per-episode dropout reseeding.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/fleet_executor.h"
#include "core/multi_mask_eval.h"
#include "core/workload.h"
#include "data/synthetic.h"
#include "fault/chip.h"
#include "fault/mask_builder.h"
#include "nn/models.h"
#include "nn/norm.h"
#include "util/error.h"

namespace reduce {
namespace {

/// The serial path the engine replaces, verbatim: per chip, restore the
/// snapshot, attach this grid's masks, evaluate the full test set, and let
/// the guard tear the masked state down.
double serial_accuracy(sequential& model, const model_snapshot& pretrained,
                       const dataset& train_data, const dataset& test_data,
                       const array_config& array, const fat_config& cfg,
                       const fault_grid& grid) {
    restore_parameters(model.parameters(), pretrained);
    fault_state_guard guard(model, pretrained);
    attach_fault_masks(model, array, grid);
    fault_aware_trainer trainer(model, train_data, test_data, cfg);
    return trainer.evaluate();
}

/// A bundle the evaluator tests run against: model + data + faulty chips.
struct eval_case {
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

eval_case make_mlp_case() {
    eval_case c;
    workload w = make_standard_workload(make_test_workload_config());
    c.model = std::move(w.model);
    c.pretrained = std::move(w.pretrained);
    c.train_data = std::move(w.train_data);
    c.test_data = std::move(w.test_data);
    c.array = w.array;
    c.trainer_cfg = w.trainer_cfg;
    c.chips = make_case_fleet(c.array, 7, 0.03, 0.3, 99);
    // An explicitly fault-free chip: its masks are all-ones ("empty mask"),
    // and the grouped path must still reproduce the serial numbers.
    chip clean{1000, 1, 0.0, fault_grid(c.array.rows, c.array.cols)};
    c.chips.push_back(std::move(clean));
    return c;
}

/// VGG11 on 8x8 inputs: the deep 1x1-spatial stages exercise the grouped
/// conv lowering's structurally-zero patch-row skip.
eval_case make_vgg_case() {
    eval_case c;
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
    c.chips = make_case_fleet(c.array, 5, 0.05, 0.3, 17);
    return c;
}

/// MLP with batch-norm AND dropout, pretrained a little so the running
/// statistics are away from their init — the stochastic-model case.
eval_case make_stochastic_case() {
    eval_case c;
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
    c.chips = make_case_fleet(c.array, 6, 0.05, 0.25, 7);
    return c;
}

void expect_group_matches_serial(eval_case& c, const std::vector<std::size_t>& pick) {
    multi_mask_evaluator evaluator(*c.model, c.pretrained, c.test_data, c.array,
                                   c.trainer_cfg);
    std::vector<const fault_grid*> grids;
    grids.reserve(pick.size());
    for (const std::size_t idx : pick) { grids.push_back(&c.chips[idx].faults); }
    const std::vector<double> grouped = evaluator.evaluate(grids);
    ASSERT_EQ(grouped.size(), pick.size());
    for (std::size_t i = 0; i < pick.size(); ++i) {
        const double serial =
            serial_accuracy(*c.model, c.pretrained, c.train_data, c.test_data, c.array,
                            c.trainer_cfg, c.chips[pick[i]].faults);
        // Bit-level equality is the contract, not a tolerance.
        EXPECT_EQ(serial, grouped[i]) << "variant " << i << " (chip " << pick[i]
                                      << ") of a K=" << pick.size() << " group";
    }
}

/// Group selections for the satellite's K grid {1, 2, 7, 32}: indices wrap
/// around the case's chip list, so K beyond the fleet size stacks
/// duplicated chips (which must still come back element-identical).
std::vector<std::size_t> pick_cyclic(const eval_case& c, std::size_t k) {
    std::vector<std::size_t> pick(k);
    for (std::size_t i = 0; i < k; ++i) { pick[i] = i % c.chips.size(); }
    return pick;
}

TEST(MultiMaskEvaluator, MlpGroupsMatchSerialAtEveryK) {
    eval_case c = make_mlp_case();
    for (const std::size_t k : {1u, 2u, 7u, 32u}) {
        expect_group_matches_serial(c, pick_cyclic(c, k));
    }
}

TEST(MultiMaskEvaluator, EmptyMaskChipMatchesSerialInsideAGroup) {
    eval_case c = make_mlp_case();
    // The clean chip is last; group it with faulty ones.
    expect_group_matches_serial(c, {c.chips.size() - 1, 0, 1, c.chips.size() - 1});
}

TEST(MultiMaskEvaluator, VggConvGroupsMatchSerialAtEveryK) {
    eval_case c = make_vgg_case();
    for (const std::size_t k : {1u, 2u, 5u, 7u}) {
        expect_group_matches_serial(c, pick_cyclic(c, k));
    }
}

TEST(MultiMaskEvaluator, StochasticModelGroupsMatchSerial) {
    eval_case c = make_stochastic_case();
    for (const std::size_t k : {1u, 2u, 6u}) {
        expect_group_matches_serial(c, pick_cyclic(c, k));
    }
}

TEST(MultiMaskEvaluator, NestedSequentialModelsMatchSerial) {
    // Mapped layers inside nested containers walk with the same cursor the
    // serial attach path uses (collect_mapped_layers recursion), so any
    // nesting that trains serially also groups.
    eval_case c;
    gaussian_mixture_config data_cfg;
    data_cfg.num_classes = 4;
    data_cfg.dim = 16;
    data_cfg.samples_per_class = 60;
    data_cfg.seed = 51;
    const dataset full = make_gaussian_mixture(data_cfg);
    dataset_split split = split_dataset(full, 0.7, 3);
    c.train_data = std::move(split.train);
    c.test_data = std::move(split.test);
    rng gen(6);
    c.model = std::make_unique<sequential>();
    c.model->emplace<linear>(16, 32, gen);
    c.model->emplace<relu_layer>();
    auto block = std::make_unique<sequential>();
    block->emplace<linear>(32, 32, gen);
    block->emplace<relu_layer>();
    c.model->add(std::move(block));
    c.model->emplace<linear>(32, 4, gen);
    c.pretrained = snapshot_parameters(c.model->parameters());
    c.array.rows = 32;
    c.array.cols = 32;
    c.trainer_cfg.batch_size = 32;
    c.chips = make_case_fleet(c.array, 4, 0.05, 0.25, 13);
    for (const std::size_t k : {1u, 3u, 4u}) {
        expect_group_matches_serial(c, pick_cyclic(c, k));
    }
}

TEST(MultiMaskEvaluator, RejectsBadInputs) {
    eval_case c = make_mlp_case();
    multi_mask_evaluator evaluator(*c.model, c.pretrained, c.test_data, c.array,
                                   c.trainer_cfg);
    EXPECT_THROW((void)evaluator.evaluate({}), error);
    EXPECT_THROW((void)evaluator.evaluate({nullptr}), error);
    const fault_grid wrong_geometry(c.array.rows + 1, c.array.cols);
    EXPECT_THROW((void)evaluator.evaluate({&wrong_geometry}), error);
}

// ---- executor-level equivalence: accuracy_before across thread counts ----

void expect_identical_outcomes(const policy_outcome& a, const policy_outcome& b,
                               const char* label) {
    ASSERT_EQ(a.chips.size(), b.chips.size()) << label;
    for (std::size_t i = 0; i < a.chips.size(); ++i) {
        const chip_outcome& x = a.chips[i];
        const chip_outcome& y = b.chips[i];
        EXPECT_EQ(x.chip_id, y.chip_id) << label << " chip " << i;
        EXPECT_EQ(x.accuracy_before, y.accuracy_before) << label << " chip " << i;
        EXPECT_EQ(x.final_accuracy, y.final_accuracy) << label << " chip " << i;
        EXPECT_EQ(x.epochs_run, y.epochs_run) << label << " chip " << i;
        EXPECT_EQ(x.masked_weight_fraction, y.masked_weight_fraction)
            << label << " chip " << i;
        EXPECT_EQ(x.meets_constraint, y.meets_constraint) << label << " chip " << i;
    }
}

TEST(FleetExecutor, MlpOutcomesAreThreadIndependent) {
    eval_case c = make_mlp_case();
    const fixed_policy policy(0.2, 0.8);
    const auto run = [&](std::size_t threads) {
        fleet_executor executor(*c.model, c.pretrained, c.train_data, c.test_data, c.array,
                                c.trainer_cfg, fleet_executor_config{.threads = threads});
        return executor.run(policy, c.chips);
    };
    const policy_outcome serial = run(1);
    for (const std::size_t threads : {2u, 8u}) {
        expect_identical_outcomes(serial, run(threads), "fleet");
    }
}

TEST(FleetExecutor, StochasticOutcomesAreThreadIndependent) {
    // The historical determinism gap (ROADMAP item 3): dropout streams and
    // batch-norm statistics used to depend on worker history, so any
    // thread-count change reshuffled outcomes. With per-chip reseeding and
    // the guard's buffer restore, the whole matrix must agree bitwise.
    eval_case c = make_stochastic_case();
    const fixed_policy policy(0.4, 0.7);
    const auto run = [&](std::size_t threads) {
        fleet_executor executor(*c.model, c.pretrained, c.train_data, c.test_data, c.array,
                                c.trainer_cfg, fleet_executor_config{.threads = threads});
        return executor.run(policy, c.chips);
    };
    const policy_outcome serial = run(1);
    for (const std::size_t threads : {2u, 8u}) {
        expect_identical_outcomes(serial, run(threads), "stochastic fleet");
    }
}

TEST(MultiMaskEvaluator, MatchesSerialAcrossReuse) {
    // One evaluator reused across group sizes: its lazily grown clones must
    // carry no mask from an earlier group, and the conv padding-row skips
    // must stay exact.
    eval_case c = make_vgg_case();
    std::vector<double> serial;
    for (const chip& ch : c.chips) {
        serial.push_back(serial_accuracy(*c.model, c.pretrained, c.train_data, c.test_data,
                                         c.array, c.trainer_cfg, ch.faults));
    }
    multi_mask_evaluator evaluator(*c.model, c.pretrained, c.test_data, c.array,
                                   c.trainer_cfg);
    for (const std::vector<std::size_t>& pick :
         std::vector<std::vector<std::size_t>>{{0, 1, 2}, {3}, {4, 0}}) {
        std::vector<const fault_grid*> grids;
        for (const std::size_t idx : pick) { grids.push_back(&c.chips[idx].faults); }
        const std::vector<double> grouped = evaluator.evaluate(grids);
        for (std::size_t i = 0; i < pick.size(); ++i) {
            EXPECT_EQ(serial[pick[i]], grouped[i]) << "chip " << pick[i];
        }
    }
}

// ---- the determinism fixes the engine's guarantees stand on ----------------

TEST(FaultStateGuard, RestoresBatchNormRunningStatistics) {
    eval_case c = make_stochastic_case();
    const std::vector<tensor*> buffers = c.model->state_buffers();
    ASSERT_FALSE(buffers.empty());
    const std::vector<tensor> before = [&] {
        std::vector<tensor> copy;
        for (const tensor* t : buffers) { copy.push_back(*t); }
        return copy;
    }();
    {
        fault_state_guard guard(*c.model, c.pretrained);
        attach_fault_masks(*c.model, c.array, c.chips[0].faults);
        fault_aware_trainer trainer(*c.model, c.train_data, c.test_data, c.trainer_cfg);
        (void)trainer.train(0.5);
        // Training moved the running statistics.
        bool moved = false;
        for (std::size_t i = 0; i < buffers.size(); ++i) {
            if (!(*buffers[i] == before[i])) { moved = true; }
        }
        EXPECT_TRUE(moved);
    }
    for (std::size_t i = 0; i < buffers.size(); ++i) {
        EXPECT_TRUE(*buffers[i] == before[i]) << "buffer " << i << " not restored";
    }
}

TEST(ChipTuner, StochasticTuneIsIndependentOfWorkerHistory) {
    // Chip B's outcome must not depend on whether the tuner ran chip A
    // first — the property the parallel executor's thread-count guarantee
    // reduces to.
    eval_case c = make_stochastic_case();
    epoch_allocation alloc;
    alloc.epochs = 0.5;
    chip_tuner fresh(*c.model, c.pretrained, c.train_data, c.test_data, c.array,
                     c.trainer_cfg);
    const chip_outcome direct = fresh.tune(c.chips[1], alloc, 0.7, 0.1);

    chip_tuner warmed(*c.model, c.pretrained, c.train_data, c.test_data, c.array,
                      c.trainer_cfg);
    (void)warmed.tune(c.chips[0], alloc, 0.7, 0.1);
    const chip_outcome after_history = warmed.tune(c.chips[1], alloc, 0.7, 0.1);

    EXPECT_EQ(direct.accuracy_before, after_history.accuracy_before);
    EXPECT_EQ(direct.final_accuracy, after_history.final_accuracy);
    EXPECT_EQ(direct.epochs_run, after_history.epochs_run);
}

TEST(ReseedStochasticLayers, ReseedsEveryDropoutLayer) {
    rng gen(9);
    auto model = make_mlp({8, 16, 16, 4}, gen, 0.3);  // two dropout layers
    EXPECT_EQ(reseed_stochastic_layers(*model, 123), 2u);
    auto plain = make_mlp({8, 16, 4}, gen);
    EXPECT_EQ(reseed_stochastic_layers(*plain, 123), 0u);
}

}  // namespace
}  // namespace reduce
