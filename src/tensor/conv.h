// Convolution and pooling primitives (implicit GEMM lowering).
//
// conv2d lowers to the matmul  [out_c] x [in_c*kh*kw]  ·  [in_c*kh*kw] x [oh*ow]
// — exactly the GEMM shape a weight-stationary systolic array executes,
// which is why the fault-map → weight-mask equivalence proven for linear
// layers carries over to convolutions unchanged.
//
// The forward/backward entry points run ONE blocked GEMM per chunk of
// images and never materialize the patch matrix. Each chunk is copied once
// into a zero-bordered staging slab [nb, C, H+2p, W+2p], and every lowered
// element is read from it through two offset tables: element (patch row r,
// column j) is staged[row_off[r] + col_off[j]], with row_off =
// c*PH*PW + ky*PW + kx and col_off = n*image + oy*s*PW + ox*s. The GEMM's
// B packer gathers its strips straight from those tables (gemm_nn_gather):
// W · L in forward, dY · Lᵀ for dW (the two tables swapped). dX keeps the
// gemm_tn column gradient Wᵀ · dY and scatters it through the same tables
// onto a staged copy of grad_input. conv2d_param_grads_acc is the backward
// without dX — what a model's first layer needs, since nothing reads its
// input gradient: no column-gradient GEMM, no grad_input, no scatter, and
// dW/db bit for bit those of conv2d_backward_acc. Every scratch buffer is
// leased from the thread-local workspace arena. Each product and each
// accumulation order is the one the materialized im2col + GEMM
// formulation had, so the results are bit-identical to it. Every loop runs
// serially on the calling thread.
//
// Chunking: forward splits a batch when the staged images plus the GEMM
// output would exceed the lowering budget; the split cannot change a
// forward value. Backward keeps the split of the materialized formulation,
// (2*patch + out_c) * oh*ow floats per image, because its chunks fix the
// order of the dW/db sums. Both are shape-only decisions, so results stay
// deterministic for a given geometry.
#pragma once

#include "tensor/tensor.h"

namespace reduce {

/// Static geometry of a conv2d: kernel, stride, padding.
struct conv2d_spec {
    std::size_t in_channels = 0;
    std::size_t out_channels = 0;
    std::size_t kernel_h = 0;
    std::size_t kernel_w = 0;
    std::size_t stride = 1;
    std::size_t padding = 0;

    /// Output spatial height for an input of height `in_h`; throws when the
    /// geometry is inconsistent.
    std::size_t out_h(std::size_t in_h) const;

    /// Output spatial width for an input of width `in_w`.
    std::size_t out_w(std::size_t in_w) const;

    /// Rows of the lowered patch matrix: in_channels * kernel_h * kernel_w.
    std::size_t patch_size() const { return in_channels * kernel_h * kernel_w; }
};

/// Lowers one image [C,H,W] to a patch matrix [patch_size, oh*ow]. Row
/// (c*kh + ky)*kw + kx, column oy*ow + ox holds the input pixel that tap
/// meets at output (oy, ox), or 0 in the padding. The conv drivers never
/// call it; it is the reference their implicit lowering is checked against.
tensor im2col(const tensor& image, const conv2d_spec& spec);

/// Adjoint of im2col: accumulates patch-matrix gradients back to [C,H,W],
/// each pixel's taps in ascending patch-row order.
tensor col2im(const tensor& columns, const conv2d_spec& spec, std::size_t in_h,
              std::size_t in_w);

/// Byte budget for the workspace scratch one conv chunk holds at once
/// (default 64 MiB): the staged images plus the GEMM output in forward;
/// in backward the (2*patch + out_c) * oh*ow floats per image of the
/// materialized formulation (see the file comment). conv2d splits batches
/// that would exceed it into equal image chunks. Exposed for tests (exercising the
/// chunked path on small shapes) and for memory-constrained deployments;
/// returns the previous value. The chunk split depends only on shapes and
/// this budget, never on data.
std::size_t set_conv_lowering_budget_bytes(std::size_t bytes);

/// Current lowering budget in bytes.
std::size_t conv_lowering_budget_bytes();

/// Patch rows of the lowered matrix with at least one in-bounds tap —
/// ascending; equals the full [0, patch_size) range when no tap is padded
/// out everywhere. Pure geometry (shapes only), so chunking stays
/// deterministic.
std::vector<std::size_t> conv_active_patch_rows(const conv2d_spec& spec, std::size_t in_h,
                                                std::size_t in_w);

// ---- structural-zero skips --------------------------------------------------
//
// Patch rows whose kernel tap is out of bounds for EVERY output position
// (the all-padding rows a 1x1-spatial layer has 8 of 9) lower to exact
// zeros. conv2d_forward and conv2d_backward_acc neither gather nor
// multiply them (see gemm_k_subset), and stay bit-identical to the full
// im2col + GEMM formulation for any operand values: forward keeps every
// row in a call whose weight holds Inf or NaN in a skipped column, and
// backward keeps every row in a call whose upstream gradient holds Inf or
// NaN — the cases where a skipped zero product would have been NaN.

/// conv2d forward over a batch.
/// input  [N, C, H, W], weight [out_c, in_c, kh, kw], bias [out_c] (optional,
/// pass empty tensor to skip) → output [N, out_c, oh, ow].
tensor conv2d_forward(const tensor& input, const tensor& weight, const tensor& bias,
                      const conv2d_spec& spec);

/// Gradients of conv2d.
struct conv2d_grads {
    tensor grad_input;   ///< [N, C, H, W]
    tensor grad_weight;  ///< [out_c, in_c, kh, kw]
    tensor grad_bias;    ///< [out_c]
};

/// conv2d backward over a batch given upstream gradient [N, out_c, oh, ow].
conv2d_grads conv2d_backward(const tensor& input, const tensor& weight,
                             const tensor& grad_output, const conv2d_spec& spec);

/// Accumulating conv2d backward: adds this batch's gradients onto the
/// provided tensors (grad_input [N,C,H,W], grad_weight [O,C,kh,kw],
/// grad_bias [O]) — the layer path, which writes parameter gradients in
/// place instead of materializing temporaries. Exact for any incoming
/// values of the three tensors, including -0 and non-finite entries.
void conv2d_backward_acc(const tensor& input, const tensor& weight, const tensor& grad_output,
                         const conv2d_spec& spec, tensor& grad_input, tensor& grad_weight,
                         tensor& grad_bias);

/// Accumulating conv2d backward for parameters only: adds exactly the
/// grad_weight and grad_bias terms conv2d_backward_acc adds (same chunk
/// split, same chains, bit for bit), and forms no input gradient.
void conv2d_param_grads_acc(const tensor& input, const tensor& grad_output,
                            const conv2d_spec& spec, tensor& grad_weight, tensor& grad_bias);

/// 2x2-style max pooling geometry.
struct pool2d_spec {
    std::size_t kernel = 2;
    std::size_t stride = 2;
};

/// Max-pool forward; also returns the flat argmax index per output element
/// for the backward pass.
struct pool2d_result {
    tensor output;                      ///< [N, C, oh, ow]
    std::vector<std::size_t> argmax;    ///< flat input index per output element
};

// Max pooling scans each window row by row and takes an element only when
// it is strictly greater than the best so far, starting from -inf: the
// first maximum wins a tie, NaN never wins, and a window with no element
// above -inf (all NaN or all -inf) outputs -inf with its argmax at the
// window's first element. The 2x2 / stride-2 window runs an unrolled,
// branch-free form of the same scan: same values, same argmax.

/// Max-pool over a batch [N, C, H, W] (windows that do not fit at the
/// bottom/right edge are dropped), with the argmax the backward needs.
pool2d_result max_pool2d_forward(const tensor& input, const pool2d_spec& spec);

/// The same output values as max_pool2d_forward, without the argmax — the
/// eval-mode forward, which no backward follows.
tensor max_pool2d_values(const tensor& input, const pool2d_spec& spec);

/// Max-pool backward: routes each output gradient to its argmax location.
tensor max_pool2d_backward(const tensor& grad_output, const std::vector<std::size_t>& argmax,
                           const shape_t& input_shape);

}  // namespace reduce
