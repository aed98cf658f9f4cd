// Tests for the tensor container: shapes, indexing, reshaping, reductions.
#include <gtest/gtest.h>

#include "tensor/tensor.h"
#include "util/error.h"

namespace reduce {
namespace {

TEST(Shape, NumelAndToString) {
    EXPECT_EQ(shape_numel({2, 3, 4}), 24u);
    EXPECT_EQ(shape_numel({}), 1u);
    EXPECT_EQ(shape_numel({0, 5}), 0u);
    EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]");
}

TEST(Tensor, DefaultIsEmpty) {
    const tensor t;
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.numel(), 0u);
}

TEST(Tensor, ZeroInitialized) {
    const tensor t({2, 3});
    EXPECT_EQ(t.numel(), 6u);
    for (const float v : t.data()) { EXPECT_EQ(v, 0.0f); }
}

TEST(Tensor, FillConstructor) {
    const tensor t({4}, 2.5f);
    for (const float v : t.data()) { EXPECT_EQ(v, 2.5f); }
}

TEST(Tensor, FromValuesAndRows) {
    const tensor v = tensor::from_values({1, 2, 3});
    EXPECT_EQ(v.shape(), shape_t({3}));
    const tensor m = tensor::from_rows({{1, 2}, {3, 4}, {5, 6}});
    EXPECT_EQ(m.shape(), shape_t({3, 2}));
    EXPECT_EQ(m.at2(2, 1), 6.0f);
}

TEST(Tensor, FromRowsRejectsRagged) {
    EXPECT_THROW(tensor::from_rows({{1, 2}, {3}}), error);
}

TEST(Tensor, ValueVectorMustMatchShape) {
    EXPECT_THROW(tensor({2, 2}, std::vector<float>{1, 2, 3}), error);
}

TEST(Tensor, At2RowMajorLayout) {
    tensor t({2, 3});
    t.at2(1, 2) = 7.0f;
    EXPECT_EQ(t[1 * 3 + 2], 7.0f);
}

TEST(Tensor, At4Layout) {
    tensor t({2, 3, 4, 5});
    t.at4(1, 2, 3, 4) = 9.0f;
    EXPECT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 9.0f);
}

TEST(Tensor, AtChecksRankAndBounds) {
    tensor t({2, 3});
    const std::size_t bad_rank[] = {0};
    EXPECT_THROW(t.at(bad_rank), shape_error);
    const std::size_t oob[] = {2, 0};
    EXPECT_THROW(t.at(oob), shape_error);
    EXPECT_THROW(t.at2(0, 3), shape_error);
}

TEST(Tensor, ExtentChecksAxis) {
    const tensor t({2, 3});
    EXPECT_EQ(t.extent(0), 2u);
    EXPECT_EQ(t.extent(1), 3u);
    EXPECT_THROW(t.extent(2), error);
}

TEST(Tensor, ReshapePreservesData) {
    tensor t = tensor::from_rows({{1, 2, 3}, {4, 5, 6}});
    const tensor r = t.reshaped({3, 2});
    EXPECT_EQ(r.at2(2, 1), 6.0f);
    EXPECT_EQ(r.at2(0, 1), 2.0f);
    t.reshape({6});
    EXPECT_EQ(t.extent(0), 6u);
}

TEST(Tensor, ReshapeRejectsWrongCount) {
    tensor t({2, 3});
    EXPECT_THROW(t.reshape({7}), error);
    EXPECT_THROW(t.reshaped({4, 2}), error);
}

TEST(Tensor, FillAndZero) {
    tensor t({3});
    t.fill(1.5f);
    EXPECT_EQ(t.sum(), 4.5);
    t.zero();
    EXPECT_EQ(t.sum(), 0.0);
}

TEST(Tensor, EqualityExact) {
    const tensor a = tensor::from_values({1, 2});
    tensor b = tensor::from_values({1, 2});
    EXPECT_TRUE(a == b);
    b[1] = 2.0001f;
    EXPECT_FALSE(a == b);
    const tensor c({2, 1}, std::vector<float>{1, 2});
    EXPECT_FALSE(a == c);  // same data, different shape
}

TEST(Tensor, AllClose) {
    const tensor a = tensor::from_values({1.0f, 2.0f});
    const tensor b = tensor::from_values({1.0f + 5e-6f, 2.0f});
    EXPECT_TRUE(a.allclose(b, 1e-5f));
    EXPECT_FALSE(a.allclose(b, 1e-7f));
    const tensor c = tensor::from_values({1.0f});
    EXPECT_FALSE(a.allclose(c));
}

TEST(Tensor, SumAndMean) {
    const tensor t = tensor::from_values({1, -2, 5, 0});
    EXPECT_DOUBLE_EQ(t.sum(), 4.0);
    EXPECT_DOUBLE_EQ(t.mean(), 1.0);
}

TEST(Tensor, MeanRejectsEmpty) {
    const tensor t({0});
    EXPECT_THROW(t.mean(), error);
}

TEST(Tensor, CopySemantics) {
    tensor a({2}, 1.0f);
    tensor b = a;
    b[0] = 5.0f;
    EXPECT_EQ(a[0], 1.0f);  // deep copy
}

TEST(Tensor, Describe) {
    const tensor t({2, 3});
    EXPECT_EQ(t.describe(), "tensor[2, 3]");
}

}  // namespace
}  // namespace reduce
