// Tests for tensor operations: matmul family vs naive references,
// elementwise ops, softmax properties.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "tensor/init.h"
#include "tensor/ops.h"
#include "util/error.h"
#include "util/rng.h"

namespace reduce {
namespace {

tensor random_tensor(shape_t shape, rng& gen, float lo = -1.0f, float hi = 1.0f) {
    tensor t(std::move(shape));
    uniform_init(t, lo, hi, gen);
    return t;
}

tensor naive_matmul(const tensor& a, const tensor& b) {
    const std::size_t m = a.extent(0);
    const std::size_t k = a.extent(1);
    const std::size_t n = b.extent(1);
    tensor c({m, n});
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (std::size_t p = 0; p < k; ++p) { acc += a.at2(i, p) * b.at2(p, j); }
            c.at2(i, j) = acc;
        }
    }
    return c;
}

TEST(Elementwise, AddSubMulScale) {
    const tensor a = tensor::from_values({1, 2, 3});
    const tensor b = tensor::from_values({4, 5, 6});
    EXPECT_TRUE(add(a, b) == tensor::from_values({5, 7, 9}));
    EXPECT_TRUE(sub(b, a) == tensor::from_values({3, 3, 3}));
    EXPECT_TRUE(mul(a, b) == tensor::from_values({4, 10, 18}));
    EXPECT_TRUE(scale(a, 2.0f) == tensor::from_values({2, 4, 6}));
}

TEST(Elementwise, ShapeMismatchThrows) {
    const tensor a({2});
    const tensor b({3});
    EXPECT_THROW(add(a, b), shape_error);
    EXPECT_THROW(mul(a, b), shape_error);
    tensor c({2});
    EXPECT_THROW(mul_inplace(c, b), shape_error);
}

TEST(Elementwise, ScaleInplaceByZero) {
    tensor a = tensor::from_values({5, -5});
    scale_inplace(a, 0.0f);
    EXPECT_DOUBLE_EQ(a.sum(), 0.0);
}

TEST(Matmul, MatchesNaiveReference) {
    rng gen(3);
    const tensor a = random_tensor({7, 5}, gen);
    const tensor b = random_tensor({5, 9}, gen);
    EXPECT_TRUE(matmul(a, b).allclose(naive_matmul(a, b), 1e-5f));
}

TEST(Matmul, IdentityIsNoop) {
    rng gen(5);
    const tensor a = random_tensor({4, 4}, gen);
    tensor eye({4, 4});
    for (std::size_t i = 0; i < 4; ++i) { eye.at2(i, i) = 1.0f; }
    EXPECT_TRUE(matmul(a, eye).allclose(a, 1e-6f));
}

TEST(Matmul, InnerDimMismatchThrows) {
    const tensor a({2, 3});
    const tensor b({4, 2});
    EXPECT_THROW(matmul(a, b), error);
}

TEST(Matmul, RejectsNonMatrix) {
    const tensor a({2, 3, 4});
    const tensor b({4, 2});
    EXPECT_THROW(matmul(a, b), shape_error);
}

TEST(MatmulNt, EqualsMatmulWithTranspose) {
    rng gen(7);
    const tensor a = random_tensor({6, 4}, gen);
    const tensor bt = random_tensor({5, 4}, gen);  // b transposed: [n, k]
    tensor b({4, 5});
    for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t j = 0; j < 5; ++j) { b.at2(i, j) = bt.at2(j, i); }
    }
    EXPECT_TRUE(matmul_nt(a, bt).allclose(matmul(a, b), 1e-5f));
}

TEST(MatmulTn, EqualsTransposedMatmul) {
    rng gen(9);
    const tensor at = random_tensor({4, 6}, gen);  // a transposed: [k, m]
    const tensor b = random_tensor({4, 3}, gen);
    tensor a({6, 4});
    for (std::size_t i = 0; i < 6; ++i) {
        for (std::size_t j = 0; j < 4; ++j) { a.at2(i, j) = at.at2(j, i); }
    }
    EXPECT_TRUE(matmul_tn(at, b).allclose(matmul(a, b), 1e-5f));
}

TEST(RowBias, AddsToEveryRow) {
    tensor a = tensor::from_rows({{1, 2}, {3, 4}});
    add_row_bias_inplace(a, tensor::from_values({10, 20}));
    EXPECT_TRUE(a == tensor::from_rows({{11, 22}, {13, 24}}));
}

TEST(RowBias, RejectsWrongWidth) {
    tensor a({2, 3});
    EXPECT_THROW(add_row_bias_inplace(a, tensor::from_values({1, 2})), error);
}

TEST(ColumnSums, MatchesManual) {
    const tensor a = tensor::from_rows({{1, 2}, {3, 4}, {5, 6}});
    tensor sums = tensor::from_values({1, -1});
    column_sums_acc(a, sums);  // accumulates onto the existing values
    EXPECT_TRUE(sums == tensor::from_values({10, 11}));
}

TEST(Softmax, RowsSumToOne) {
    rng gen(11);
    const tensor a = random_tensor({5, 7}, gen, -4.0f, 4.0f);
    const tensor s = softmax_rows(a);
    for (std::size_t i = 0; i < 5; ++i) {
        double row_sum = 0.0;
        for (std::size_t j = 0; j < 7; ++j) {
            EXPECT_GT(s.at2(i, j), 0.0f);
            row_sum += s.at2(i, j);
        }
        EXPECT_NEAR(row_sum, 1.0, 1e-5);
    }
}

TEST(Softmax, StableWithLargeLogits) {
    const tensor a = tensor::from_rows({{1000.0f, 1000.0f}});
    const tensor s = softmax_rows(a);
    EXPECT_NEAR(s.at2(0, 0), 0.5f, 1e-5f);
    EXPECT_FALSE(std::isnan(s.at2(0, 1)));
}

TEST(Softmax, ShiftInvariance) {
    const tensor a = tensor::from_rows({{1.0f, 2.0f, 3.0f}});
    tensor b = a;
    for (float& v : b.data()) { v += 100.0f; }
    EXPECT_TRUE(softmax_rows(a).allclose(softmax_rows(b), 1e-5f));
}

TEST(LogSoftmax, ConsistentWithSoftmax) {
    rng gen(13);
    const tensor a = random_tensor({3, 6}, gen, -3.0f, 3.0f);
    const tensor s = softmax_rows(a);
    const tensor ls = log_softmax_rows(a);
    for (std::size_t i = 0; i < a.numel(); ++i) {
        EXPECT_NEAR(std::exp(ls[i]), s[i], 1e-5f);
    }
}

TEST(ArgmaxRows, PicksPerRowMax) {
    const tensor a = tensor::from_rows({{1, 5, 2}, {9, 0, 3}});
    const auto idx = argmax_rows(a);
    ASSERT_EQ(idx.size(), 2u);
    EXPECT_EQ(idx[0], 1u);
    EXPECT_EQ(idx[1], 0u);
}

TEST(Relu, ForwardClampsNegatives) {
    const tensor a = tensor::from_values({-1, 0, 2});
    EXPECT_TRUE(relu(a) == tensor::from_values({0, 0, 2}));
}

TEST(Relu, BackwardGatesOnInput) {
    // 37 elements: whole vectors plus a tail, which ends on -0 and NaN.
    // Negatives and both zeros gate the gradient; a NaN input keeps it
    // (NaN <= 0 is false), and so does a positive denormal.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float denorm = std::numeric_limits<float>::denorm_min();
    const float pattern[] = {-0.0f, nan, -1.0f, 0.0f, denorm, 2.0f, -denorm};
    const bool kept[] = {false, true, false, false, true, true, false};
    tensor input({37});
    tensor grad({37});
    tensor want({37});
    for (std::size_t i = 0; i < 37; ++i) {
        input[i] = pattern[i % 7];
        grad[i] = 10.0f + static_cast<float>(i);
        want[i] = kept[i % 7] ? grad[i] : 0.0f;
    }
    const tensor got = relu_backward(grad, input);
    for (std::size_t i = 0; i < 37; ++i) {
        EXPECT_EQ(std::memcmp(got.raw() + i, want.raw() + i, sizeof(float)), 0)
            << "element " << i << ": got " << got[i] << ", want " << want[i];
    }
}

TEST(Norms, SquaredAndL2) {
    const tensor a = tensor::from_values({3, 4});
    EXPECT_DOUBLE_EQ(squared_norm(a), 25.0);
    EXPECT_DOUBLE_EQ(l2_norm(a), 5.0);
}

// Property sweep: matmul agrees with the naive reference across shapes,
// including degenerate 1-sized dimensions.
struct matmul_case {
    std::size_t m, k, n;
};

class MatmulShapes : public ::testing::TestWithParam<matmul_case> {};

TEST_P(MatmulShapes, AgreesWithNaive) {
    const auto [m, k, n] = GetParam();
    rng gen(100 + m * 31 + k * 7 + n);
    const tensor a = random_tensor({m, k}, gen);
    const tensor b = random_tensor({k, n}, gen);
    EXPECT_TRUE(matmul(a, b).allclose(naive_matmul(a, b), 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatmulShapes,
                         ::testing::Values(matmul_case{1, 1, 1}, matmul_case{1, 8, 1},
                                           matmul_case{8, 1, 8}, matmul_case{3, 17, 5},
                                           matmul_case{16, 16, 16}, matmul_case{2, 64, 33}));

}  // namespace
}  // namespace reduce
