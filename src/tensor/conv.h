// Convolution and pooling primitives (im2col formulation).
//
// conv2d lowers to the matmul  [out_c] x [in_c*kh*kw]  ·  [in_c*kh*kw] x [oh*ow]
// — exactly the GEMM shape a weight-stationary systolic array executes,
// which is why the fault-map → weight-mask equivalence proven for linear
// layers carries over to convolutions unchanged.
//
// The forward/backward entry points lower the WHOLE batch at once: one
// [patch, N*oh*ow] patch matrix and a single blocked GEMM per layer instead
// of N small ones, with every scratch buffer leased from the thread-local
// workspace arena (no per-image copies, no per-call allocation after
// warm-up). When the patch matrix would exceed the lowering budget the
// batch is split into fixed-size image chunks — a shape-only decision, so
// results stay deterministic for a given geometry. Every loop runs
// serially on the calling thread.
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

/// Lowers one image [C,H,W] to a patch matrix [patch_size, oh*ow].
tensor im2col(const tensor& image, const conv2d_spec& spec);

/// Adjoint of im2col: accumulates patch-matrix gradients back to [C,H,W].
tensor col2im(const tensor& columns, const conv2d_spec& spec, std::size_t in_h,
              std::size_t in_w);

/// Whole-batch lowering: writes the patch matrix [patch_size, batch*oh*ow]
/// of `batch` images (contiguous [C,H,W] blocks at `input`) into `dst`
/// (size patch_size * batch*oh*ow). Column n*oh*ow + oy*ow + ox holds the
/// patch of image n at output position (oy, ox).
void im2col_batch(const float* input, std::size_t batch, std::size_t in_h, std::size_t in_w,
                  const conv2d_spec& spec, float* dst);

/// Adjoint of im2col_batch: ACCUMULATES (+=) the patch-matrix gradients in
/// `columns` [patch_size, batch*oh*ow] back onto `batch` images at `dst`.
void col2im_batch(const float* columns, std::size_t batch, std::size_t in_h, std::size_t in_w,
                  const conv2d_spec& spec, float* dst);

/// Byte budget for the workspace scratch one lowered conv chunk holds at
/// once (default 64 MiB): patch matrix + lowered output in forward, plus
/// the column gradient in backward. conv2d splits batches that would
/// exceed it into equal image chunks. Exposed for tests (exercising the
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
// zeros. conv2d_forward and conv2d_backward_acc neither lower nor multiply
// them (see gemm_k_subset), and stay bit-identical to the full im2col +
// GEMM formulation for any operand values: forward lowers every row in a
// call whose weight holds Inf or NaN in a skipped column, and backward
// lowers every row in a call whose upstream gradient holds Inf or NaN —
// the cases where a skipped zero product would have been NaN.

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

/// Max-pool over a batch [N, C, H, W]; spatial dims must tile exactly.
pool2d_result max_pool2d_forward(const tensor& input, const pool2d_spec& spec);

/// Max-pool backward: routes each output gradient to its argmax location.
tensor max_pool2d_backward(const tensor& grad_output, const std::vector<std::size_t>& argmax,
                           const shape_t& input_shape);

/// Global average pooling: [N, C, H, W] → [N, C].
tensor global_avg_pool_forward(const tensor& input);

/// Backward of global average pooling.
tensor global_avg_pool_backward(const tensor& grad_output, const shape_t& input_shape);

}  // namespace reduce
