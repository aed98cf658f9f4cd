// Numerical gradient verification — the property test that licenses every
// training result in the repo. For each layer type (and stacked models) we
// compare analytic parameter/input gradients against central finite
// differences of the loss.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/conv_layers.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "nn/norm.h"
#include "tensor/init.h"
#include "util/rng.h"

namespace reduce {
namespace {

tensor random_tensor(shape_t shape, rng& gen, float scale = 1.0f) {
    tensor t(std::move(shape));
    uniform_init(t, -scale, scale, gen);
    return t;
}

std::vector<std::size_t> random_labels(std::size_t n, std::size_t classes, rng& gen) {
    std::vector<std::size_t> labels(n);
    for (auto& l : labels) { l = gen.uniform_index(classes); }
    return labels;
}

double loss_of(sequential& model, const tensor& x, const std::vector<std::size_t>& labels) {
    return cross_entropy_loss(model.forward(x), labels).value;
}

/// Checks every parameter gradient of `model` at (x, labels) against central
/// differences. `eps` perturbs weights; tolerances are float32-appropriate.
void check_param_grads(sequential& model, const tensor& x,
                       const std::vector<std::size_t>& labels, float eps = 1e-2f,
                       double tol = 2e-2) {
    // Analytic gradients.
    for (parameter* p : model.parameters()) { p->zero_grad(); }
    const loss_result loss = cross_entropy_loss(model.forward(x), labels);
    model.backward(loss.grad);

    for (parameter* p : model.parameters()) {
        for (std::size_t i = 0; i < p->value.numel(); ++i) {
            const float saved = p->value[i];
            p->value[i] = saved + eps;
            const double up = loss_of(model, x, labels);
            p->value[i] = saved - eps;
            const double down = loss_of(model, x, labels);
            p->value[i] = saved;
            const double numeric = (up - down) / (2.0 * eps);
            const double analytic = p->grad[i];
            const double denom = std::max({1.0, std::abs(numeric), std::abs(analytic)});
            EXPECT_NEAR(analytic, numeric, tol * denom)
                << "parameter '" << p->name << "' element " << i;
        }
    }
}

/// Checks the input gradient returned by backward().
void check_input_grad(sequential& model, const tensor& x,
                      const std::vector<std::size_t>& labels, float eps = 1e-2f,
                      double tol = 2e-2) {
    for (parameter* p : model.parameters()) { p->zero_grad(); }
    const loss_result loss = cross_entropy_loss(model.forward(x), labels);
    const tensor grad_input = model.backward(loss.grad);

    tensor probe = x;
    for (std::size_t i = 0; i < probe.numel(); ++i) {
        const float saved = probe[i];
        probe[i] = saved + eps;
        const double up = loss_of(model, probe, labels);
        probe[i] = saved - eps;
        const double down = loss_of(model, probe, labels);
        probe[i] = saved;
        const double numeric = (up - down) / (2.0 * eps);
        const double analytic = grad_input[i];
        const double denom = std::max({1.0, std::abs(numeric), std::abs(analytic)});
        EXPECT_NEAR(analytic, numeric, tol * denom) << "input element " << i;
    }
}

TEST(GradCheck, LinearLayer) {
    rng gen(101);
    sequential model;
    model.emplace<linear>(5, 4, gen);
    const tensor x = random_tensor({3, 5}, gen);
    const auto labels = random_labels(3, 4, gen);
    check_param_grads(model, x, labels);
    check_input_grad(model, x, labels);
}

TEST(GradCheck, LinearReluStack) {
    rng gen(102);
    sequential model;
    model.emplace<linear>(6, 8, gen);
    model.emplace<relu_layer>();
    model.emplace<linear>(8, 3, gen);
    const tensor x = random_tensor({4, 6}, gen);
    const auto labels = random_labels(4, 3, gen);
    check_param_grads(model, x, labels);
    check_input_grad(model, x, labels);
}

TEST(GradCheck, Conv2dLayer) {
    rng gen(103);
    sequential model;
    model.emplace<conv2d_layer>(conv2d_spec{2, 3, 3, 3, 1, 1}, gen);
    model.emplace<flatten>();
    const tensor x = random_tensor({2, 2, 4, 4}, gen);
    const auto labels = random_labels(2, 3 * 16, gen);
    check_param_grads(model, x, labels);
    check_input_grad(model, x, labels);
}

TEST(GradCheck, Conv2dStrided) {
    rng gen(104);
    sequential model;
    model.emplace<conv2d_layer>(conv2d_spec{1, 2, 3, 3, 2, 1}, gen);
    model.emplace<flatten>();
    const tensor x = random_tensor({2, 1, 5, 5}, gen);
    const auto labels = random_labels(2, 2 * 9, gen);
    check_param_grads(model, x, labels);
    check_input_grad(model, x, labels);
}

TEST(GradCheck, MaxPoolPath) {
    rng gen(105);
    sequential model;
    model.emplace<conv2d_layer>(conv2d_spec{1, 2, 3, 3, 1, 1}, gen);
    model.emplace<max_pool2d_layer>(pool2d_spec{2, 2});
    model.emplace<flatten>();
    model.emplace<linear>(2 * 2 * 2, 3, gen);
    const tensor x = random_tensor({2, 1, 4, 4}, gen);
    const auto labels = random_labels(2, 3, gen);
    check_param_grads(model, x, labels);
}

TEST(GradCheck, BatchNorm1dPath) {
    rng gen(107);
    sequential model;
    model.emplace<linear>(4, 6, gen);
    model.emplace<batch_norm1d>(6);
    model.emplace<relu_layer>();
    model.emplace<linear>(6, 3, gen);
    const tensor x = random_tensor({8, 4}, gen);
    const auto labels = random_labels(8, 3, gen);
    // BN couples batch elements; slightly looser tolerance for float32.
    check_param_grads(model, x, labels, 1e-2f, 3e-2);
    check_input_grad(model, x, labels, 1e-2f, 3e-2);
}

TEST(GradCheck, BatchNorm2dPath) {
    rng gen(108);
    sequential model;
    model.emplace<conv2d_layer>(conv2d_spec{1, 2, 3, 3, 1, 1}, gen);
    model.emplace<batch_norm2d>(2);
    model.emplace<relu_layer>();
    model.emplace<flatten>();
    model.emplace<linear>(2 * 9, 2, gen);
    const tensor x = random_tensor({4, 1, 3, 3}, gen);
    const auto labels = random_labels(4, 2, gen);
    check_param_grads(model, x, labels, 1e-2f, 3e-2);
}

TEST(GradCheck, MaskedLinearGradientRespectsMask) {
    // With a mask attached, weights at masked positions must receive zero
    // *effective* update; the straight-through estimator masks the gradient
    // at the optimizer. Here we verify the loss is insensitive to masked
    // weights after apply_mask (their value is pinned to 0).
    rng gen(109);
    sequential model;
    auto& fc = model.emplace<linear>(4, 3, gen);
    tensor mask({3, 4}, 1.0f);
    mask.at2(0, 0) = 0.0f;
    mask.at2(2, 3) = 0.0f;
    fc.weight().mask = mask;
    fc.weight().apply_mask();

    const tensor x = random_tensor({3, 4}, gen);
    const auto labels = random_labels(3, 3, gen);
    // Unmasked positions must still gradcheck.
    check_param_grads(model, x, labels);
    // Loss must be invariant to masked weights being "restored": masked
    // execution equals pruned execution.
    const double base = loss_of(model, x, labels);
    fc.weight().apply_mask();
    EXPECT_DOUBLE_EQ(loss_of(model, x, labels), base);
}

TEST(GradCheck, MlpFactoryModel) {
    rng gen(110);
    auto model = make_mlp({5, 7, 4}, gen);
    const tensor x = random_tensor({3, 5}, gen);
    const auto labels = random_labels(3, 4, gen);
    check_param_grads(*model, x, labels);
}

TEST(GradCheck, CrossEntropyGradient) {
    rng gen(112);
    const tensor logits = random_tensor({4, 5}, gen, 2.0f);
    const auto labels = random_labels(4, 5, gen);
    const loss_result r = cross_entropy_loss(logits, labels);
    const float eps = 1e-2f;
    tensor probe = logits;
    for (std::size_t i = 0; i < probe.numel(); ++i) {
        const float saved = probe[i];
        probe[i] = saved + eps;
        const double up = cross_entropy_loss(probe, labels).value;
        probe[i] = saved - eps;
        const double down = cross_entropy_loss(probe, labels).value;
        probe[i] = saved;
        EXPECT_NEAR(r.grad[i], (up - down) / (2.0 * eps), 1e-3);
    }
}

}  // namespace
}  // namespace reduce
