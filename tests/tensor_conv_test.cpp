// Tests for convolution/pooling primitives: im2col geometry, conv2d against
// a direct reference, adjoint consistency of col2im, pooling behaviour.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "tensor/conv.h"
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

// Direct (quadruple-loop) convolution reference.
tensor reference_conv2d(const tensor& input, const tensor& weight, const tensor& bias,
                        const conv2d_spec& spec) {
    const std::size_t batch = input.extent(0);
    const std::size_t in_h = input.extent(2);
    const std::size_t in_w = input.extent(3);
    const std::size_t oh = spec.out_h(in_h);
    const std::size_t ow = spec.out_w(in_w);
    tensor out({batch, spec.out_channels, oh, ow});
    for (std::size_t n = 0; n < batch; ++n) {
        for (std::size_t oc = 0; oc < spec.out_channels; ++oc) {
            for (std::size_t oy = 0; oy < oh; ++oy) {
                for (std::size_t ox = 0; ox < ow; ++ox) {
                    float acc = bias.empty() ? 0.0f : bias[oc];
                    for (std::size_t ic = 0; ic < spec.in_channels; ++ic) {
                        for (std::size_t ky = 0; ky < spec.kernel_h; ++ky) {
                            for (std::size_t kx = 0; kx < spec.kernel_w; ++kx) {
                                const std::ptrdiff_t iy =
                                    static_cast<std::ptrdiff_t>(oy * spec.stride + ky) -
                                    static_cast<std::ptrdiff_t>(spec.padding);
                                const std::ptrdiff_t ix =
                                    static_cast<std::ptrdiff_t>(ox * spec.stride + kx) -
                                    static_cast<std::ptrdiff_t>(spec.padding);
                                if (iy < 0 || ix < 0 ||
                                    iy >= static_cast<std::ptrdiff_t>(in_h) ||
                                    ix >= static_cast<std::ptrdiff_t>(in_w)) {
                                    continue;
                                }
                                acc += input.at4(n, ic, static_cast<std::size_t>(iy),
                                                 static_cast<std::size_t>(ix)) *
                                       weight.at4(oc, ic, ky, kx);
                            }
                        }
                    }
                    out.at4(n, oc, oy, ox) = acc;
                }
            }
        }
    }
    return out;
}

TEST(Conv2dSpec, OutputGeometry) {
    conv2d_spec spec{3, 8, 3, 3, 1, 1};
    EXPECT_EQ(spec.out_h(8), 8u);  // same padding
    EXPECT_EQ(spec.out_w(8), 8u);
    spec.stride = 2;
    spec.padding = 0;
    EXPECT_EQ(spec.out_h(7), 3u);
    EXPECT_EQ(spec.patch_size(), 27u);
}

TEST(Conv2dSpec, RejectsKernelLargerThanInput) {
    const conv2d_spec spec{1, 1, 5, 5, 1, 0};
    EXPECT_THROW(spec.out_h(4), error);
}

TEST(Im2col, IdentityKernelExtractsPixels) {
    // 1x1 kernel, stride 1: columns are just the flattened image.
    rng gen(1);
    const tensor image = random_tensor({2, 3, 3}, gen);
    const conv2d_spec spec{2, 1, 1, 1, 1, 0};
    const tensor cols = im2col(image, spec);
    EXPECT_EQ(cols.shape(), shape_t({2, 9}));
    for (std::size_t c = 0; c < 2; ++c) {
        for (std::size_t i = 0; i < 9; ++i) {
            EXPECT_EQ(cols.at2(c, i), image[c * 9 + i]);
        }
    }
}

TEST(Im2col, PaddingProducesZeros) {
    const tensor image({1, 1, 1}, std::vector<float>{5.0f});
    const conv2d_spec spec{1, 1, 3, 3, 1, 1};
    const tensor cols = im2col(image, spec);
    // 3x3 kernel over a padded 1x1 image: center tap sees 5, others 0.
    EXPECT_EQ(cols.shape(), shape_t({9, 1}));
    EXPECT_EQ(cols.at2(4, 0), 5.0f);
    double total = 0.0;
    for (const float v : cols.data()) { total += v; }
    EXPECT_DOUBLE_EQ(total, 5.0);
}

TEST(Im2col, RejectsWrongChannelCount) {
    const tensor image({2, 4, 4});
    const conv2d_spec spec{3, 1, 3, 3, 1, 1};
    EXPECT_THROW(im2col(image, spec), error);
}

TEST(Col2im, IsAdjointOfIm2col) {
    // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
    // property that makes conv backward correct.
    rng gen(2);
    const conv2d_spec spec{2, 1, 3, 3, 2, 1};
    const std::size_t in_h = 5;
    const std::size_t in_w = 7;
    const tensor x = random_tensor({2, in_h, in_w}, gen);
    const tensor cols = im2col(x, spec);
    const tensor y = random_tensor(cols.shape(), gen);
    const tensor back = col2im(y, spec, in_h, in_w);

    double lhs = 0.0;
    for (std::size_t i = 0; i < cols.numel(); ++i) {
        lhs += static_cast<double>(cols[i]) * y[i];
    }
    double rhs = 0.0;
    for (std::size_t i = 0; i < x.numel(); ++i) {
        rhs += static_cast<double>(x[i]) * back[i];
    }
    EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Conv2dForward, MatchesDirectReference) {
    rng gen(3);
    const conv2d_spec spec{3, 4, 3, 3, 1, 1};
    const tensor input = random_tensor({2, 3, 6, 6}, gen);
    const tensor weight = random_tensor({4, 3, 3, 3}, gen);
    const tensor bias = random_tensor({4}, gen);
    EXPECT_TRUE(conv2d_forward(input, weight, bias, spec)
                    .allclose(reference_conv2d(input, weight, bias, spec), 1e-4f));
}

TEST(Conv2dForward, NoBias) {
    rng gen(4);
    const conv2d_spec spec{1, 2, 3, 3, 1, 0};
    const tensor input = random_tensor({1, 1, 5, 5}, gen);
    const tensor weight = random_tensor({2, 1, 3, 3}, gen);
    EXPECT_TRUE(conv2d_forward(input, weight, tensor(), spec)
                    .allclose(reference_conv2d(input, weight, tensor(), spec), 1e-4f));
}

TEST(Conv2dForward, RejectsMismatchedWeight) {
    const conv2d_spec spec{3, 4, 3, 3, 1, 1};
    const tensor input({1, 3, 6, 6});
    const tensor weight({4, 2, 3, 3});  // wrong in_channels
    EXPECT_THROW(conv2d_forward(input, weight, tensor(), spec), error);
}

TEST(Conv2dBackward, BiasGradIsOutputSum) {
    rng gen(5);
    const conv2d_spec spec{2, 3, 3, 3, 1, 1};
    const tensor input = random_tensor({2, 2, 4, 4}, gen);
    const tensor weight = random_tensor({3, 2, 3, 3}, gen);
    const tensor grad_out = random_tensor({2, 3, 4, 4}, gen);
    const conv2d_grads grads = conv2d_backward(input, weight, grad_out, spec);
    for (std::size_t oc = 0; oc < 3; ++oc) {
        double expected = 0.0;
        for (std::size_t n = 0; n < 2; ++n) {
            for (std::size_t y = 0; y < 4; ++y) {
                for (std::size_t x = 0; x < 4; ++x) { expected += grad_out.at4(n, oc, y, x); }
            }
        }
        EXPECT_NEAR(grads.grad_bias[oc], expected, 1e-4);
    }
}

TEST(Conv2dBackward, ShapesMatchInputs) {
    rng gen(6);
    const conv2d_spec spec{2, 3, 3, 3, 2, 1};
    const tensor input = random_tensor({1, 2, 7, 5}, gen);
    const tensor weight = random_tensor({3, 2, 3, 3}, gen);
    const tensor out = conv2d_forward(input, weight, tensor(), spec);
    const conv2d_grads grads = conv2d_backward(input, weight, out, spec);
    EXPECT_EQ(grads.grad_input.shape(), input.shape());
    EXPECT_EQ(grads.grad_weight.shape(), weight.shape());
    EXPECT_EQ(grads.grad_bias.shape(), shape_t({3}));
}

TEST(MaxPool, ForwardPicksMaxima) {
    tensor input({1, 1, 2, 4}, std::vector<float>{1, 5, 2, 0,
                                                  3, 4, 8, 7});
    const pool2d_result r = max_pool2d_forward(input, pool2d_spec{2, 2});
    EXPECT_EQ(r.output.shape(), shape_t({1, 1, 1, 2}));
    EXPECT_EQ(r.output[0], 5.0f);
    EXPECT_EQ(r.output[1], 8.0f);
}

TEST(MaxPool, BackwardRoutesToArgmax) {
    tensor input({1, 1, 2, 2}, std::vector<float>{1, 9, 3, 2});
    const pool2d_result r = max_pool2d_forward(input, pool2d_spec{2, 2});
    tensor grad_out({1, 1, 1, 1}, std::vector<float>{4.0f});
    const tensor grad_in = max_pool2d_backward(grad_out, r.argmax, input.shape());
    EXPECT_EQ(grad_in[1], 4.0f);  // the 9 at flat index 1
    EXPECT_EQ(grad_in[0], 0.0f);
    EXPECT_EQ(grad_in[2], 0.0f);
}

TEST(MaxPool, StrideSmallerThanKernel) {
    tensor input({1, 1, 3, 3}, std::vector<float>{1, 2, 3,
                                                  4, 5, 6,
                                                  7, 8, 9});
    const pool2d_result r = max_pool2d_forward(input, pool2d_spec{2, 1});
    EXPECT_EQ(r.output.shape(), shape_t({1, 1, 2, 2}));
    EXPECT_EQ(r.output[0], 5.0f);
    EXPECT_EQ(r.output[3], 9.0f);
}

TEST(MaxPool, RejectsOversizedKernel) {
    const tensor input({1, 1, 2, 2});
    EXPECT_THROW(max_pool2d_forward(input, pool2d_spec{3, 1}), error);
}

TEST(MaxPool, WindowWithNothingAboveNegInfPointsAtItsFirstElement) {
    // Image 1's windows: one all NaN, one all -inf. Their value stays -inf,
    // and the backward routes their gradient into their own first element,
    // not into image 0.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float ninf = -std::numeric_limits<float>::infinity();
    const tensor input({2, 1, 2, 4}, std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8,
                                                        nan, nan, ninf, ninf,
                                                        nan, nan, ninf, ninf});
    const pool2d_result r = max_pool2d_forward(input, pool2d_spec{2, 2});
    ASSERT_EQ(r.argmax.size(), 4u);
    EXPECT_EQ(r.argmax[2], 8u);
    EXPECT_EQ(r.argmax[3], 10u);
    EXPECT_EQ(r.output[2], ninf);
    EXPECT_EQ(r.output[3], ninf);
    const tensor grad_in = max_pool2d_backward(tensor({2, 1, 1, 2}, 1.0f), r.argmax,
                                               input.shape());
    EXPECT_EQ(grad_in[0], 0.0f);
    EXPECT_EQ(grad_in[8], 1.0f);
    EXPECT_EQ(grad_in[10], 1.0f);
    // The general scan (a 2x2 window at stride 1 here) agrees.
    const pool2d_result strided = max_pool2d_forward(input, pool2d_spec{2, 1});
    EXPECT_EQ(strided.argmax[3], 8u);  // image 1, window at column 0
    EXPECT_EQ(strided.argmax[5], 10u);  // image 1, window at column 2
}

/// The general max-pool scan written out: each window row by row, strict
/// `>` from -inf, argmax starting at the window's first element.
pool2d_result reference_max_pool(const tensor& input, const pool2d_spec& spec) {
    const std::size_t planes = input.extent(0) * input.extent(1);
    const std::size_t in_h = input.extent(2);
    const std::size_t in_w = input.extent(3);
    const std::size_t oh = (in_h - spec.kernel) / spec.stride + 1;
    const std::size_t ow = (in_w - spec.kernel) / spec.stride + 1;
    pool2d_result r{tensor({input.extent(0), input.extent(1), oh, ow}), {}};
    for (std::size_t p = 0; p < planes; ++p) {
        for (std::size_t oy = 0; oy < oh; ++oy) {
            for (std::size_t ox = 0; ox < ow; ++ox) {
                const std::size_t base = p * in_h * in_w;
                std::size_t best_idx = base + oy * spec.stride * in_w + ox * spec.stride;
                float best = -std::numeric_limits<float>::infinity();
                for (std::size_t ky = 0; ky < spec.kernel; ++ky) {
                    for (std::size_t kx = 0; kx < spec.kernel; ++kx) {
                        const std::size_t flat =
                            base + (oy * spec.stride + ky) * in_w + ox * spec.stride + kx;
                        if (input[flat] > best) {
                            best = input[flat];
                            best_idx = flat;
                        }
                    }
                }
                r.output[(p * oh + oy) * ow + ox] = best;
                r.argmax.push_back(best_idx);
            }
        }
    }
    return r;
}

bool same_bits(const tensor& a, const tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.raw(), b.raw(), a.numel() * sizeof(float)) == 0;
}

TEST(MaxPool, UnrolledAndGeneralScansAgreeBitForBit) {
    // Values drawn from a small set so windows hold ties, NaN, +0 beside
    // -0, -inf and +inf; random shapes with odd H and W (the last row and
    // column are dropped). The 2x2/stride-2 spec takes the unrolled scan,
    // the others the general one; both must equal the written-out scan in
    // values and argmax, and the eval form must return the same values.
    const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                              0.0f,
                              -0.0f,
                              -std::numeric_limits<float>::infinity(),
                              std::numeric_limits<float>::infinity(),
                              1.0f,
                              -1.0f,
                              0.5f};
    rng gen(0x9001);
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t n = 1 + gen.uniform_index(3);
        const std::size_t c = 1 + gen.uniform_index(4);
        const std::size_t h = 2 + gen.uniform_index(8);
        const std::size_t w = 2 + gen.uniform_index(8);
        tensor input({n, c, h, w});
        for (std::size_t i = 0; i < input.numel(); ++i) {
            input[i] = gen.bernoulli(0.6) ? specials[gen.uniform_index(8)]
                                          : static_cast<float>(gen.uniform_int(-3, 3));
        }
        for (const pool2d_spec spec : {pool2d_spec{2, 2}, pool2d_spec{2, 1}, pool2d_spec{3, 2}}) {
            if (h < spec.kernel || w < spec.kernel) { continue; }
            const pool2d_result want = reference_max_pool(input, spec);
            const pool2d_result got = max_pool2d_forward(input, spec);
            const std::string where = input.describe() + " kernel " +
                                      std::to_string(spec.kernel) + " stride " +
                                      std::to_string(spec.stride);
            EXPECT_TRUE(same_bits(got.output, want.output)) << where;
            EXPECT_EQ(got.argmax, want.argmax) << where;
            EXPECT_TRUE(same_bits(max_pool2d_values(input, spec), want.output)) << where;
        }
    }
}

/// Runs the full and the parameter-only accumulating backward onto the same
/// non-zero starting gradients and requires dW and db to match bit for bit.
void expect_param_grads_match(const conv2d_spec& spec, std::size_t batch, std::size_t hw,
                              bool nan_dy, std::uint64_t seed) {
    rng gen(seed);
    const tensor input = random_tensor({batch, spec.in_channels, hw, hw}, gen);
    const tensor weight =
        random_tensor({spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w}, gen);
    tensor dy = random_tensor({batch, spec.out_channels, spec.out_h(hw), spec.out_w(hw)}, gen);
    if (nan_dy) { dy[dy.numel() / 2] = std::numeric_limits<float>::quiet_NaN(); }
    const tensor gw0 = random_tensor(weight.shape(), gen);
    const tensor gb0 = random_tensor({spec.out_channels}, gen);

    tensor gin(input.shape());
    tensor gw_full = gw0;
    tensor gb_full = gb0;
    conv2d_backward_acc(input, weight, dy, spec, gin, gw_full, gb_full);
    tensor gw_params = gw0;
    tensor gb_params = gb0;
    conv2d_param_grads_acc(input, dy, spec, gw_params, gb_params);
    EXPECT_TRUE(same_bits(gw_params, gw_full)) << "dW, " << hw << "x" << hw;
    EXPECT_TRUE(same_bits(gb_params, gb_full)) << "db, " << hw << "x" << hw;
}

TEST(ConvParamGrads, EqualTheFullBackwardBitForBit) {
    const conv2d_spec spec{3, 5, 3, 3, 1, 1};
    // 1x1 spatial skips the 8 all-padding patch rows; 5x5 skips none; a
    // NaN in dY turns the skip off. Each once whole and once chunked.
    ASSERT_LT(conv_active_patch_rows(spec, 1, 1).size(), spec.patch_size());
    ASSERT_EQ(conv_active_patch_rows(spec, 5, 5).size(), spec.patch_size());
    for (const bool chunked : {false, true}) {
        const std::size_t saved =
            set_conv_lowering_budget_bytes(chunked ? 1024 : conv_lowering_budget_bytes());
        for (const std::size_t hw : {std::size_t{1}, std::size_t{5}}) {
            for (const bool nan_dy : {false, true}) {
                SCOPED_TRACE(std::string(chunked ? "chunked" : "whole") +
                             (nan_dy ? ", NaN dY" : ""));
                expect_param_grads_match(spec, 6, hw, nan_dy, 31 + hw);
            }
        }
        set_conv_lowering_budget_bytes(saved);
    }
}

// Parameterized sweep: conv2d == direct reference across geometries.
struct conv_case {
    std::size_t in_c, out_c, k, stride, pad, h, w;
};

class ConvGeometries : public ::testing::TestWithParam<conv_case> {};

TEST_P(ConvGeometries, ForwardMatchesReference) {
    const conv_case p = GetParam();
    rng gen(p.in_c * 100 + p.out_c * 10 + p.k + p.stride + p.pad);
    const conv2d_spec spec{p.in_c, p.out_c, p.k, p.k, p.stride, p.pad};
    const tensor input = random_tensor({2, p.in_c, p.h, p.w}, gen);
    const tensor weight = random_tensor({p.out_c, p.in_c, p.k, p.k}, gen);
    const tensor bias = random_tensor({p.out_c}, gen);
    EXPECT_TRUE(conv2d_forward(input, weight, bias, spec)
                    .allclose(reference_conv2d(input, weight, bias, spec), 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(Geometries, ConvGeometries,
                         ::testing::Values(conv_case{1, 1, 1, 1, 0, 4, 4},
                                           conv_case{2, 3, 3, 1, 1, 5, 5},
                                           conv_case{3, 2, 3, 2, 1, 7, 6},
                                           conv_case{1, 4, 5, 1, 2, 8, 8},
                                           conv_case{2, 2, 2, 2, 0, 6, 6}));

}  // namespace
}  // namespace reduce
