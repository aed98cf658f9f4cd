// Behavioural tests for NN layers: shapes, modes, masks, sequential
// plumbing, losses, metrics, serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "nn/loss.h"
#include "nn/metrics.h"
#include "nn/models.h"
#include "nn/norm.h"
#include "nn/optim.h"
#include "nn/serialize.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "util/error.h"
#include "util/rng.h"

namespace reduce {
namespace {

tensor random_tensor(shape_t shape, rng& gen) {
    tensor t(std::move(shape));
    uniform_init(t, -1.0f, 1.0f, gen);
    return t;
}

TEST(Linear, ForwardComputesAffineMap) {
    rng gen(1);
    linear fc(2, 3, gen);
    fc.weight().value = tensor({3, 2}, std::vector<float>{1, 0, 0, 1, 1, 1});
    fc.bias().value = tensor::from_values({0.5f, -0.5f, 0.0f});
    const tensor x = tensor::from_rows({{2, 3}});
    const tensor y = fc.forward(x);
    EXPECT_FLOAT_EQ(y.at2(0, 0), 2.5f);   // 1*2 + 0*3 + 0.5
    EXPECT_FLOAT_EQ(y.at2(0, 1), 2.5f);   // 0*2 + 1*3 - 0.5
    EXPECT_FLOAT_EQ(y.at2(0, 2), 5.0f);   // 2 + 3
}

TEST(Linear, RejectsWrongInputWidth) {
    rng gen(2);
    linear fc(4, 2, gen);
    EXPECT_THROW(fc.forward(tensor({1, 3})), error);
}

TEST(Linear, BackwardBeforeForwardThrows) {
    rng gen(3);
    linear fc(2, 2, gen);
    EXPECT_THROW(fc.backward(tensor({1, 2})), error);
}

TEST(Linear, GradientsAccumulateAcrossBatches) {
    rng gen(4);
    linear fc(2, 2, gen);
    const tensor x = tensor::from_rows({{1, 1}});
    const tensor g = tensor::from_rows({{1, 1}});
    (void)fc.forward(x);
    (void)fc.backward(g);
    const tensor first = fc.weight().grad;
    (void)fc.forward(x);
    (void)fc.backward(g);
    EXPECT_TRUE(fc.weight().grad.allclose(scale(first, 2.0f), 1e-6f));
}

TEST(Parameter, MaskApplicationZeroesWeightsAndGrads) {
    rng gen(5);
    linear fc(2, 2, gen);
    fc.weight().mask = tensor({2, 2}, std::vector<float>{1, 0, 0, 1});
    fc.weight().value.fill(3.0f);
    fc.weight().apply_mask();
    EXPECT_FLOAT_EQ(fc.weight().value.at2(0, 1), 0.0f);
    EXPECT_FLOAT_EQ(fc.weight().value.at2(0, 0), 3.0f);
    fc.weight().grad.fill(1.0f);
    fc.weight().mask_grad();
    EXPECT_FLOAT_EQ(fc.weight().grad.at2(1, 0), 0.0f);
    EXPECT_FLOAT_EQ(fc.weight().grad.at2(1, 1), 1.0f);
}

TEST(Parameter, MismatchedMaskThrows) {
    rng gen(6);
    linear fc(2, 2, gen);
    fc.weight().mask = tensor({3, 2}, 1.0f);
    EXPECT_THROW(fc.weight().apply_mask(), error);
}

TEST(Parameter, ClearMaskRestoresTrainability) {
    rng gen(7);
    linear fc(2, 2, gen);
    fc.weight().mask = tensor({2, 2}, 0.0f);
    EXPECT_TRUE(fc.weight().has_mask());
    fc.weight().clear_mask();
    EXPECT_FALSE(fc.weight().has_mask());
}

TEST(ReluLayer, ZeroesNegativeActivationsAndGradients) {
    relu_layer layer;
    const tensor x = tensor::from_values({-2, 3});
    const tensor y = layer.forward(x);
    EXPECT_FLOAT_EQ(y[0], 0.0f);
    EXPECT_FLOAT_EQ(y[1], 3.0f);
    const tensor g = layer.backward(tensor::from_values({5, 5}));
    EXPECT_FLOAT_EQ(g[0], 0.0f);
    EXPECT_FLOAT_EQ(g[1], 5.0f);
}

TEST(Flatten, RoundTripsShape) {
    flatten layer;
    rng gen(8);
    const tensor x = random_tensor({2, 3, 4, 5}, gen);
    const tensor y = layer.forward(x);
    EXPECT_EQ(y.shape(), shape_t({2, 60}));
    const tensor g = layer.backward(y);
    EXPECT_EQ(g.shape(), x.shape());
}

TEST(Dropout, EvalModeIsIdentity) {
    dropout layer(0.5, 42);
    layer.set_training(false);
    rng gen(9);
    const tensor x = random_tensor({4, 4}, gen);
    EXPECT_TRUE(layer.forward(x) == x);
}

TEST(Dropout, TrainModeDropsAndRescales) {
    dropout layer(0.5, 42);
    rng gen(10);
    const tensor x = tensor({1, 1000}, 1.0f);
    const tensor y = layer.forward(x);
    std::size_t zeros = 0;
    for (const float v : y.data()) {
        if (v == 0.0f) {
            ++zeros;
        } else {
            EXPECT_FLOAT_EQ(v, 2.0f);  // 1 / (1 - 0.5)
        }
    }
    EXPECT_NEAR(static_cast<double>(zeros) / 1000.0, 0.5, 0.08);
}

TEST(Dropout, BackwardUsesSameMask) {
    dropout layer(0.3, 7);
    const tensor x = tensor({1, 100}, 1.0f);
    const tensor y = layer.forward(x);
    const tensor g = layer.backward(tensor({1, 100}, 1.0f));
    for (std::size_t i = 0; i < 100; ++i) {
        EXPECT_FLOAT_EQ(g[i], y[i]);  // same multiplier as forward
    }
}

TEST(Dropout, RejectsInvalidProbability) {
    EXPECT_THROW(dropout(1.0, 1), error);
    EXPECT_THROW(dropout(-0.1, 1), error);
}

TEST(BatchNorm1d, NormalizesBatchInTraining) {
    batch_norm1d bn(2);
    tensor x = tensor::from_rows({{1, 10}, {3, 30}, {5, 50}, {7, 70}});
    const tensor y = bn.forward(x);
    for (std::size_t j = 0; j < 2; ++j) {
        double mean = 0.0;
        for (std::size_t i = 0; i < 4; ++i) { mean += y.at2(i, j); }
        EXPECT_NEAR(mean / 4.0, 0.0, 1e-5);
        double var = 0.0;
        for (std::size_t i = 0; i < 4; ++i) { var += y.at2(i, j) * y.at2(i, j); }
        EXPECT_NEAR(var / 4.0, 1.0, 1e-3);
    }
}

TEST(BatchNorm1d, EvalUsesRunningStats) {
    batch_norm1d bn(1);
    // Feed several training batches so the running stats converge near the
    // true mean/var, then check eval output uses them.
    for (int i = 0; i < 200; ++i) {
        tensor x = tensor::from_rows({{4.0f}, {6.0f}});
        (void)bn.forward(x);
    }
    bn.set_training(false);
    tensor probe = tensor::from_rows({{5.0f}});
    const tensor y = bn.forward(probe);
    EXPECT_NEAR(y[0], 0.0f, 0.05f);  // 5 is the running mean
}

TEST(BatchNorm1d, TrainingNeedsBatchOfTwo) {
    batch_norm1d bn(2);
    tensor x({1, 2}, 1.0f);
    EXPECT_THROW(bn.forward(x), error);
}

TEST(BatchNorm2d, NormalizesPerChannel) {
    batch_norm2d bn(2);
    rng gen(11);
    tensor x = random_tensor({3, 2, 4, 4}, gen);
    // Shift channel 1 far away; BN must re-center it.
    for (std::size_t n = 0; n < 3; ++n) {
        for (std::size_t i = 0; i < 16; ++i) { x.at4(n, 1, i / 4, i % 4) += 100.0f; }
    }
    const tensor y = bn.forward(x);
    double mean_c1 = 0.0;
    for (std::size_t n = 0; n < 3; ++n) {
        for (std::size_t i = 0; i < 16; ++i) { mean_c1 += y.at4(n, 1, i / 4, i % 4); }
    }
    EXPECT_NEAR(mean_c1 / 48.0, 0.0, 1e-4);
}

TEST(Sequential, ForwardBackwardChain) {
    rng gen(12);
    sequential model;
    model.emplace<linear>(4, 8, gen);
    model.emplace<relu_layer>();
    model.emplace<linear>(8, 3, gen);
    const tensor x = random_tensor({2, 4}, gen);
    const tensor y = model.forward(x);
    EXPECT_EQ(y.shape(), shape_t({2, 3}));
    const tensor g = model.backward(tensor({2, 3}, 1.0f));
    EXPECT_EQ(g.shape(), x.shape());
    EXPECT_EQ(model.parameters().size(), 4u);  // two weights + two biases
}

/// Bytes of every parameter gradient of `model`, in parameter order.
std::vector<tensor> grads_of(sequential& model) {
    std::vector<tensor> grads;
    for (const parameter* p : model.parameters()) { grads.push_back(p->grad); }
    return grads;
}

bool same_bits(const tensor& a, const tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.raw(), b.raw(), a.numel() * sizeof(float)) == 0;
}

/// backward_params must accumulate exactly the parameter gradients
/// backward accumulates, onto the same non-zero starting gradients.
void expect_backward_params_match(sequential& model, const tensor& x, const tensor& grad) {
    for (parameter* p : model.parameters()) {
        for (std::size_t i = 0; i < p->grad.numel(); ++i) {
            p->grad[i] = 0.25f * static_cast<float>(i % 7) - 0.5f;
        }
    }
    std::unique_ptr<sequential> twin = clone_model(model);
    (void)model.forward(x);
    (void)model.backward(grad);
    (void)twin->forward(x);
    twin->backward_params(grad);
    const std::vector<tensor> want = grads_of(model);
    const std::vector<tensor> got = grads_of(*twin);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_TRUE(same_bits(got[k], want[k])) << "parameter " << k;
    }
}

TEST(Sequential, BackwardParamsEqualsBackwardBitForBit) {
    rng gen(45);
    {
        SCOPED_TRACE("linear first");
        auto mlp = make_mlp({6, 8, 3}, gen);
        expect_backward_params_match(*mlp, random_tensor({5, 6}, gen),
                                     random_tensor({5, 3}, gen));
    }
    // A conv first layer at 1x1 spatial (all-padding patch rows skipped),
    // at 4x4 (none skipped), and with a NaN upstream gradient.
    for (const std::size_t hw : {std::size_t{1}, std::size_t{4}}) {
        for (const bool nan_grad : {false, true}) {
            SCOPED_TRACE("conv first, " + std::to_string(hw) + "x" + std::to_string(hw) +
                         (nan_grad ? ", NaN dY" : ""));
            sequential cnn;
            cnn.emplace<conv2d_layer>(conv2d_spec{2, 3, 3, 3, 1, 1}, gen);
            cnn.emplace<relu_layer>();
            cnn.emplace<flatten>();
            cnn.emplace<linear>(3 * hw * hw, 2, gen);
            tensor grad = random_tensor({4, 2}, gen);
            if (nan_grad) { grad[3] = std::numeric_limits<float>::quiet_NaN(); }
            expect_backward_params_match(cnn, random_tensor({4, 2, hw, hw}, gen), grad);
        }
    }
}

TEST(Sequential, BackwardBeforeForwardThrows) {
    rng gen(43);
    auto model = make_mlp({4, 8, 2}, gen);
    EXPECT_THROW((void)model->backward(tensor({2, 2})), error);
}

TEST(Sequential, BackwardAfterEvalForwardThrows) {
    // Eval-mode forwards cache nothing (max pooling records no argmax): a
    // backward after one must fail loudly instead of reusing the input or
    // argmax of an earlier training forward.
    rng gen(44);
    sequential model;
    model.emplace<conv2d_layer>(conv2d_spec{2, 3, 3, 3, 1, 1}, gen);
    model.emplace<relu_layer>();
    model.emplace<max_pool2d_layer>(pool2d_spec{2, 2});
    model.emplace<flatten>();
    model.emplace<linear>(3 * 2 * 2, 2, gen);
    const tensor x = random_tensor({2, 2, 4, 4}, gen);
    const tensor grad({2, 2}, 1.0f);
    (void)model.forward(x);  // training forward: backward is valid
    (void)model.backward(grad);
    model.set_training(false);
    (void)model.forward(x);
    EXPECT_THROW((void)model.backward(grad), error);
    EXPECT_THROW(model.backward_params(grad), error);
    // Each caching layer refuses on its own, not only the last one.
    for (const std::size_t i : {0u, 1u, 2u, 4u}) {
        const shape_t shape = i == 4   ? shape_t{2, 2}
                              : i == 2 ? shape_t{2, 3, 2, 2}
                                       : shape_t{2, 3, 4, 4};
        const tensor gi(shape, 1.0f);
        EXPECT_THROW((void)model.layer(i).backward(gi), error) << "layer " << i;
    }
    model.set_training(true);
    (void)model.forward(x);
    EXPECT_NO_THROW((void)model.backward(grad));
}

TEST(Sequential, NanInputReachesParameterGradients) {
    rng gen(31);
    rng model_gen(37);
    auto model = make_mlp({8, 16, 3}, model_gen);
    tensor x = random_tensor({4, 8}, gen);
    x.raw()[9] = std::numeric_limits<float>::quiet_NaN();
    const tensor grad = random_tensor({4, 3}, gen);

    (void)model->forward(x);
    (void)model->backward(grad);
    // relu clamps NaN activations to 0, so the forward output stays finite —
    // but relu_backward keeps gradient for NaN pre-activations (only z <= 0
    // is gated), so dW of the first layer (dYᵀ · X with the poisoned X) must
    // carry the NaN.
    bool saw_nan = false;
    for (const parameter* p : model->parameters()) {
        for (std::size_t i = 0; i < p->grad.numel(); ++i) {
            if (std::isnan(p->grad.raw()[i])) { saw_nan = true; }
        }
    }
    EXPECT_TRUE(saw_nan) << "poison never reached the parameter gradients";
}

TEST(Sequential, LayerAccessAndBounds) {
    rng gen(13);
    sequential model;
    model.emplace<linear>(2, 2, gen);
    EXPECT_EQ(model.layer(0).name(), "linear");
    EXPECT_THROW(model.layer(1), error);
}

TEST(Sequential, SetTrainingPropagates) {
    rng gen(14);
    sequential model;
    model.emplace<dropout>(0.5, 1);
    model.set_training(false);
    const tensor x = tensor({1, 10}, 1.0f);
    EXPECT_TRUE(model.forward(x) == x);
}

TEST(CrossEntropy, KnownValues) {
    // Uniform logits over 4 classes → loss = ln(4).
    const tensor logits({2, 4}, 0.0f);
    const loss_result r = cross_entropy_loss(logits, {0, 3});
    EXPECT_NEAR(r.value, std::log(4.0), 1e-6);
    // Gradient rows sum to zero (softmax minus one-hot).
    for (std::size_t i = 0; i < 2; ++i) {
        double row = 0.0;
        for (std::size_t j = 0; j < 4; ++j) { row += r.grad.at2(i, j); }
        EXPECT_NEAR(row, 0.0, 1e-6);
    }
}

TEST(CrossEntropy, PerfectPredictionHasTinyLoss) {
    tensor logits({1, 3}, std::vector<float>{20.0f, -20.0f, -20.0f});
    const loss_result r = cross_entropy_loss(logits, {0});
    EXPECT_LT(r.value, 1e-6);
}

TEST(CrossEntropy, RejectsBadLabels) {
    const tensor logits({1, 3});
    EXPECT_THROW(cross_entropy_loss(logits, {3}), error);
    EXPECT_THROW(cross_entropy_loss(logits, {0, 1}), error);
}

TEST(Metrics, Accuracy) {
    tensor logits({3, 2}, std::vector<float>{0.9f, 0.1f,   // → 0
                                             0.2f, 0.8f,   // → 1
                                             0.6f, 0.4f}); // → 0
    const std::vector<std::size_t> labels = {0, 1, 1};
    EXPECT_NEAR(accuracy(logits, labels), 2.0 / 3.0, 1e-9);
}

TEST(Snapshot, RoundTripThroughFile) {
    rng gen(15);
    sequential model;
    model.emplace<linear>(3, 4, gen);
    model.emplace<linear>(4, 2, gen);
    const model_snapshot snap = snapshot_parameters(model.parameters());
    const std::string path = testing::TempDir() + "reduce_snap_test.bin";
    save_snapshot(path, snap);
    const model_snapshot loaded = load_snapshot(path);
    ASSERT_EQ(loaded.size(), snap.size());
    for (std::size_t i = 0; i < snap.size(); ++i) {
        EXPECT_TRUE(loaded.values[i] == snap.values[i]);
        EXPECT_EQ(loaded.names[i], snap.names[i]);
    }
    std::remove(path.c_str());
}

TEST(Snapshot, RestoreRejectsShapeMismatch) {
    rng gen(16);
    sequential a;
    a.emplace<linear>(3, 4, gen);
    sequential b;
    b.emplace<linear>(4, 3, gen);
    const model_snapshot snap = snapshot_parameters(a.parameters());
    EXPECT_THROW(restore_parameters(b.parameters(), snap), error);
}

TEST(Snapshot, RestoreUndoesTraining) {
    rng gen(17);
    sequential model;
    model.emplace<linear>(2, 2, gen);
    const model_snapshot snap = snapshot_parameters(model.parameters());
    model.parameters()[0]->value.fill(99.0f);
    restore_parameters(model.parameters(), snap);
    EXPECT_TRUE(model.parameters()[0]->value == snap.values[0]);
}

TEST(Snapshot, ModelSnapshotCarriesBatchNormState) {
    // snapshot_model must capture running statistics; a round-trip through
    // the RDNN2 file keeps them bit-exact; restore_model deploys them.
    rng gen(19);
    sequential model;
    model.emplace<linear>(4, 6, gen);
    model.emplace<batch_norm1d>(6);
    model.emplace<linear>(6, 2, gen);
    // Mutate the running statistics away from their init.
    model.set_training(true);
    (void)model.forward(random_tensor({8, 4}, gen));
    model_snapshot snap = snapshot_model(model);
    ASSERT_EQ(snap.state.size(), 2u);  // running mean + var

    const std::string path = testing::TempDir() + "reduce_snap_bn.rdnn";
    save_snapshot(path, snap);
    const model_snapshot loaded = load_snapshot(path);
    ASSERT_EQ(loaded.size(), snap.size());
    ASSERT_EQ(loaded.state.size(), snap.state.size());
    for (std::size_t i = 0; i < snap.state.size(); ++i) {
        EXPECT_TRUE(loaded.state[i] == snap.state[i]);
    }

    // Drift the model further, then restore: parameters AND statistics must
    // come back to the captured values.
    (void)model.forward(random_tensor({8, 4}, gen));
    restore_model(model, loaded);
    const model_snapshot after = snapshot_model(model);
    for (std::size_t i = 0; i < snap.size(); ++i) {
        EXPECT_TRUE(after.values[i] == snap.values[i]);
    }
    for (std::size_t i = 0; i < snap.state.size(); ++i) {
        EXPECT_TRUE(after.state[i] == snap.state[i]);
    }
    std::remove(path.c_str());
}

TEST(Snapshot, StateFreeSnapshotStaysOnLegacyFormat) {
    // Parameter-only snapshots keep writing RDNN1 bytes, so files from
    // state-free models remain readable by pre-RDNN2 tools — and RDNN1
    // files load back with empty state (the backward-compatibility leg).
    rng gen(20);
    sequential model;
    model.emplace<linear>(3, 2, gen);
    const model_snapshot snap = snapshot_model(model);  // no stateful layers
    EXPECT_TRUE(snap.state.empty());
    const std::string path = testing::TempDir() + "reduce_snap_v1.rdnn";
    save_snapshot(path, snap);
    {
        std::ifstream f(path, std::ios::binary);
        char magic[6] = {};
        f.read(magic, 6);
        EXPECT_EQ(std::string(magic, 6), "RDNN1\n");
    }
    const model_snapshot loaded = load_snapshot(path);
    EXPECT_TRUE(loaded.state.empty());
    restore_model(model, loaded);  // must accept a state-free snapshot
    std::remove(path.c_str());
}

TEST(Snapshot, RestoreModelRejectsStateMismatch) {
    rng gen(21);
    sequential bn_model;
    bn_model.emplace<linear>(4, 6, gen);
    bn_model.emplace<batch_norm1d>(6);
    model_snapshot snap = snapshot_model(bn_model);
    snap.state.pop_back();  // corrupt: one buffer missing
    EXPECT_THROW(restore_model(bn_model, snap), error);
}

TEST(Snapshot, LoadRejectsGarbageFile) {
    const std::string path = testing::TempDir() + "reduce_snap_garbage.bin";
    {
        std::ofstream f(path, std::ios::binary);
        f << "not a snapshot";
    }
    EXPECT_THROW(load_snapshot(path), error);
    std::remove(path.c_str());
}

TEST(Snapshot, LoadRejectsCorruptCountsWithIoError) {
    // A valid magic followed by an absurd count must throw the documented
    // io_error, not drive an unchecked multi-gigabyte reserve.
    const std::string path = testing::TempDir() + "reduce_snap_corrupt.rdnn";
    for (const char* magic : {"RDNN1\n", "RDNN2\n"}) {
        std::ofstream f(path, std::ios::binary);
        f.write(magic, 6);
        const std::uint64_t absurd = ~std::uint64_t{0};
        f.write(reinterpret_cast<const char*>(&absurd), sizeof absurd);
        f.close();
        EXPECT_THROW(load_snapshot(path), io_error) << magic;
    }
    std::remove(path.c_str());
}

TEST(ModelZoo, MlpShapesAndParams) {
    rng gen(18);
    auto model = make_mlp({8, 16, 4}, gen);
    const tensor x = random_tensor({3, 8}, gen);
    EXPECT_EQ(model->forward(x).shape(), shape_t({3, 4}));
    EXPECT_EQ(parameter_count(model->parameters()), 8u * 16 + 16 + 16 * 4 + 4);
}

TEST(ModelZoo, MlpRejectsTooFewDims) {
    rng gen(19);
    EXPECT_THROW(make_mlp({8}, gen), error);
}

TEST(ModelZoo, TinyCnnForward) {
    rng gen(20);
    auto model = make_tiny_cnn(image_shape{3, 8, 8}, 10, gen);
    const tensor x = random_tensor({2, 3, 8, 8}, gen);
    EXPECT_EQ(model->forward(x).shape(), shape_t({2, 10}));
}

TEST(ModelZoo, Vgg11BuildsAndRuns) {
    rng gen(21);
    vgg11_config cfg;
    cfg.input = {3, 8, 8};
    cfg.num_classes = 10;
    cfg.width_multiplier = 0.0625;  // 4..32 channels
    auto model = make_vgg11(cfg, gen);
    const tensor x = random_tensor({1, 3, 8, 8}, gen);
    EXPECT_EQ(model->forward(x).shape(), shape_t({1, 10}));
    // VGG11 "A" has 8 conv layers + 1 classifier.
    EXPECT_EQ(collect_mapped_layers(*model).size(), 9u);
}

TEST(ModelZoo, CollectMappedLayersDims) {
    rng gen(22);
    sequential model;
    model.emplace<conv2d_layer>(conv2d_spec{3, 8, 3, 3, 1, 1}, gen);
    model.emplace<flatten>();
    model.emplace<linear>(8 * 4 * 4, 10, gen);
    const auto mapped = collect_mapped_layers(model);
    ASSERT_EQ(mapped.size(), 2u);
    EXPECT_EQ(mapped[0].kind, "conv2d");
    EXPECT_EQ(mapped[0].rows, 27u);  // 3*3*3 patch
    EXPECT_EQ(mapped[0].cols, 8u);
    EXPECT_EQ(mapped[1].kind, "linear");
    EXPECT_EQ(mapped[1].rows, 128u);
    EXPECT_EQ(mapped[1].cols, 10u);
}

}  // namespace
}  // namespace reduce
