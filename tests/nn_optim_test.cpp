// Tests for the SGD optimizer, with emphasis on the mask-aware
// update invariant FAT relies on: masked weights stay exactly zero through
// arbitrary optimization.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/layers.h"
#include "nn/optim.h"
#include "tensor/ops.h"
#include "util/error.h"
#include "util/rng.h"

namespace reduce {
namespace {

/// A free-standing quadratic "model": loss = 0.5*||w - target||^2, whose
/// gradient is (w - target). Lets us test optimizers in isolation.
struct quadratic {
    parameter p;
    tensor target;

    explicit quadratic(std::vector<float> start, std::vector<float> goal) {
        const std::size_t n = start.size();  // before the move below
        p.name = "w";
        p.value = tensor({n}, std::move(start));
        p.grad = tensor({n});
        target = tensor({n}, std::move(goal));
    }

    void compute_grad() {
        p.grad = sub(p.value, target);
        // mask_grad/apply_mask are the optimizer's job.
    }

    double loss() const {
        const tensor diff = sub(p.value, target);
        return 0.5 * squared_norm(diff);
    }
};

TEST(Sgd, ConvergesOnQuadratic) {
    quadratic q({10.0f, -5.0f}, {1.0f, 2.0f});
    sgd opt({&q.p}, {.learning_rate = 0.1});
    for (int i = 0; i < 200; ++i) {
        opt.zero_grad();
        q.compute_grad();
        opt.step();
    }
    EXPECT_LT(q.loss(), 1e-6);
}

TEST(Sgd, MomentumAcceleratesConvergence) {
    quadratic plain({10.0f}, {0.0f});
    quadratic heavy({10.0f}, {0.0f});
    sgd opt_plain({&plain.p}, {.learning_rate = 0.02});
    sgd opt_heavy({&heavy.p}, {.learning_rate = 0.02, .momentum = 0.9});
    for (int i = 0; i < 50; ++i) {
        opt_plain.zero_grad();
        plain.compute_grad();
        opt_plain.step();
        opt_heavy.zero_grad();
        heavy.compute_grad();
        opt_heavy.step();
    }
    EXPECT_LT(heavy.loss(), plain.loss());
}

TEST(Sgd, SingleStepMatchesHandComputation) {
    quadratic q({2.0f}, {0.0f});
    sgd opt({&q.p}, {.learning_rate = 0.5});
    opt.zero_grad();
    q.compute_grad();  // grad = 2.0
    opt.step();
    EXPECT_FLOAT_EQ(q.p.value[0], 1.0f);  // 2.0 - 0.5*2.0
}

TEST(Sgd, WeightDecayShrinksWeights) {
    quadratic q({1.0f}, {1.0f});  // gradient 0 at start
    sgd opt({&q.p}, {.learning_rate = 0.1, .weight_decay = 0.5});
    opt.zero_grad();
    q.compute_grad();
    opt.step();
    EXPECT_FLOAT_EQ(q.p.value[0], 1.0f - 0.1f * 0.5f * 1.0f);
}

TEST(Sgd, MaskedWeightsStayZero) {
    quadratic q({3.0f, 4.0f}, {10.0f, 10.0f});
    q.p.mask = tensor::from_values({0.0f, 1.0f});
    q.p.apply_mask();
    EXPECT_FLOAT_EQ(q.p.value[0], 0.0f);
    sgd opt({&q.p}, {.learning_rate = 0.1, .momentum = 0.9});
    for (int i = 0; i < 120; ++i) {
        opt.zero_grad();
        q.compute_grad();
        opt.step();
        EXPECT_FLOAT_EQ(q.p.value[0], 0.0f) << "step " << i;
    }
    EXPECT_NEAR(q.p.value[1], 10.0f, 1e-2f);
}

TEST(Sgd, RejectsBadConfig) {
    quadratic q({1.0f}, {0.0f});
    EXPECT_THROW(sgd({&q.p}, {.learning_rate = 0.1, .momentum = 1.0}), error);
    EXPECT_THROW(sgd({&q.p}, {.learning_rate = 0.1, .weight_decay = -1.0}), error);
    EXPECT_THROW(sgd({&q.p}, {.learning_rate = -0.1}), error);
}

TEST(Optimizer, RejectsEmptyParams) {
    EXPECT_THROW(sgd({}, {}), error);
}

TEST(ZeroGrad, ClearsAllParameters) {
    quadratic q({1.0f, 2.0f}, {0.0f, 0.0f});
    sgd opt({&q.p}, {.learning_rate = 0.1});
    q.compute_grad();
    EXPECT_NE(q.p.grad.sum(), 0.0);
    opt.zero_grad();
    EXPECT_EQ(q.p.grad.sum(), 0.0);
}

TEST(GradClip, ScalesDownLargeGradients) {
    quadratic q({0.0f, 0.0f}, {-30.0f, -40.0f});  // grad = (30, 40), norm 50
    q.compute_grad();
    const double pre = clip_grad_norm({&q.p}, 5.0);
    EXPECT_NEAR(pre, 50.0, 1e-4);
    EXPECT_NEAR(l2_norm(q.p.grad), 5.0, 1e-4);
}

TEST(GradClip, LeavesSmallGradientsAlone) {
    quadratic q({0.0f}, {-3.0f});  // grad = 3
    q.compute_grad();
    clip_grad_norm({&q.p}, 10.0);
    EXPECT_FLOAT_EQ(q.p.grad[0], 3.0f);
}

TEST(SetLearningRate, Validated) {
    quadratic q({1.0f}, {0.0f});
    sgd opt({&q.p}, {.learning_rate = 0.1});
    opt.set_learning_rate(0.5);
    EXPECT_DOUBLE_EQ(opt.learning_rate(), 0.5);
    EXPECT_THROW(opt.set_learning_rate(-1.0), error);
}

}  // namespace
}  // namespace reduce
