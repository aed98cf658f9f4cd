#include "tensor/conv.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/workspace.h"
#include "util/error.h"

namespace reduce {

std::size_t conv2d_spec::out_h(std::size_t in_h) const {
    REDUCE_CHECK(in_h + 2 * padding >= kernel_h,
                 "conv2d kernel_h " << kernel_h << " larger than padded input " << in_h);
    REDUCE_CHECK(stride > 0, "conv2d stride must be positive");
    return (in_h + 2 * padding - kernel_h) / stride + 1;
}

std::size_t conv2d_spec::out_w(std::size_t in_w) const {
    REDUCE_CHECK(in_w + 2 * padding >= kernel_w,
                 "conv2d kernel_w " << kernel_w << " larger than padded input " << in_w);
    REDUCE_CHECK(stride > 0, "conv2d stride must be positive");
    return (in_w + 2 * padding - kernel_w) / stride + 1;
}

namespace {

// Lowering budget: cap on the workspace slabs one chunk holds at once
// (patch matrix + lowered output, plus the column gradient in backward).
// Only chunk GEOMETRY depends on it, so any budget yields the same forward
// numbers; the backward dW/db accumulation order follows the chunk split,
// which is itself a pure function of shapes and this budget.
std::atomic<std::size_t> lowering_budget_bytes{64u << 20};

/// Images per lowered chunk: as many as the budget allows, at least 1, at
/// most the batch. `slab_rows` is the total height of the workspace slabs
/// held simultaneously per chunk, in patch-matrix-row units — forward
/// leases columns + lowered output (patch + out_c rows of `plane` floats
/// per image); backward additionally holds the column gradient
/// (2*patch + out_c), so its chunks are smaller under the same budget.
std::size_t images_per_chunk(std::size_t slab_rows, std::size_t plane, std::size_t batch) {
    const std::size_t per_image = slab_rows * plane * sizeof(float);
    if (per_image == 0) { return std::max<std::size_t>(batch, 1); }
    const std::size_t fit = lowering_budget_bytes.load(std::memory_order_relaxed) / per_image;
    return std::clamp<std::size_t>(fit, 1, std::max<std::size_t>(batch, 1));
}

/// Scatters a lowered chunk output [out_c, nb*plane] (row stride
/// `src_stride`) back to [image, out_c, plane] layout starting at image
/// `img0` of `out_ptr`, adding the optional bias.
void scatter_lowered_output(const float* src, std::size_t src_stride, std::size_t nb,
                            std::size_t plane, std::size_t out_c, const tensor& bias,
                            float* out_ptr, std::size_t img0) {
    const bool has_bias = !bias.empty();
    for (std::size_t oc = 0; oc < out_c; ++oc) {
        const float b = has_bias ? bias[oc] : 0.0f;
        const float* srow = src + oc * src_stride;
        for (std::size_t n = 0; n < nb; ++n) {
            float* dst = out_ptr + ((img0 + n) * out_c + oc) * plane;
            const float* col = srow + n * plane;
            for (std::size_t i = 0; i < plane; ++i) { dst[i] = col[i] + b; }
        }
    }
}

/// Lowers ONE patch row (absolute index `patch_row`) of the whole batch
/// into `drow` (length batch*oh*ow) — the unit both im2col entry points
/// loop over.
void lower_patch_row(const float* input, std::size_t batch, std::size_t in_h,
                     std::size_t in_w, const conv2d_spec& spec, std::size_t patch_row,
                     float* drow_base) {
    const std::size_t oh = spec.out_h(in_h);
    const std::size_t ow = spec.out_w(in_w);
    const std::size_t out_cols = oh * ow;
    const std::size_t image_elems = spec.in_channels * in_h * in_w;
    const std::size_t taps = spec.kernel_h * spec.kernel_w;
    const std::size_t c = patch_row / taps;
    const std::size_t kh = (patch_row % taps) / spec.kernel_w;
    const std::size_t kw = patch_row % spec.kernel_w;
    for (std::size_t n = 0; n < batch; ++n) {
        const float* src = input + n * image_elems;
        float* drow = drow_base + n * out_cols;
        for (std::size_t oy = 0; oy < oh; ++oy) {
            // Signed arithmetic for the padded coordinate.
            const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy * spec.stride + kh) -
                                      static_cast<std::ptrdiff_t>(spec.padding);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(in_h)) {
                std::memset(drow + oy * ow, 0, ow * sizeof(float));
                continue;
            }
            const float* srow = src + (c * in_h + static_cast<std::size_t>(iy)) * in_w;
            for (std::size_t ox = 0; ox < ow; ++ox) {
                const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(ox * spec.stride + kw) -
                                          static_cast<std::ptrdiff_t>(spec.padding);
                drow[oy * ow + ox] = (ix >= 0 && ix < static_cast<std::ptrdiff_t>(in_w))
                                         ? srow[static_cast<std::size_t>(ix)]
                                         : 0.0f;
            }
        }
    }
}

}  // namespace

std::size_t set_conv_lowering_budget_bytes(std::size_t bytes) {
    REDUCE_CHECK(bytes > 0, "conv lowering budget must be positive");
    return lowering_budget_bytes.exchange(bytes, std::memory_order_relaxed);
}

std::size_t conv_lowering_budget_bytes() {
    return lowering_budget_bytes.load(std::memory_order_relaxed);
}

void im2col_batch(const float* input, std::size_t batch, std::size_t in_h, std::size_t in_w,
                  const conv2d_spec& spec, float* dst) {
    const std::size_t total_cols = batch * spec.out_h(in_h) * spec.out_w(in_w);
    for (std::size_t r = 0; r < spec.patch_size(); ++r) {
        lower_patch_row(input, batch, in_h, in_w, spec, r, dst + r * total_cols);
    }
}

void col2im_batch(const float* columns, std::size_t batch, std::size_t in_h, std::size_t in_w,
                  const conv2d_spec& spec, float* dst) {
    const std::size_t oh = spec.out_h(in_h);
    const std::size_t ow = spec.out_w(in_w);
    const std::size_t out_cols = oh * ow;
    const std::size_t total_cols = batch * out_cols;
    const std::size_t image_elems = spec.in_channels * in_h * in_w;
    // Patch rows of different kernel taps accumulate onto OVERLAPPING input
    // pixels; each pixel's += chain visits its taps in ascending patch-row
    // order.
    std::size_t patch_row = 0;
    for (std::size_t c = 0; c < spec.in_channels; ++c) {
        for (std::size_t kh = 0; kh < spec.kernel_h; ++kh) {
            for (std::size_t kw = 0; kw < spec.kernel_w; ++kw, ++patch_row) {
                const float* prow = columns + patch_row * total_cols;
                for (std::size_t n = 0; n < batch; ++n) {
                    float* img = dst + n * image_elems;
                    const float* srow = prow + n * out_cols;
                    for (std::size_t oy = 0; oy < oh; ++oy) {
                        const std::ptrdiff_t iy =
                            static_cast<std::ptrdiff_t>(oy * spec.stride + kh) -
                            static_cast<std::ptrdiff_t>(spec.padding);
                        if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(in_h)) {
                            continue;
                        }
                        float* irow =
                            img + (c * in_h + static_cast<std::size_t>(iy)) * in_w;
                        for (std::size_t ox = 0; ox < ow; ++ox) {
                            const std::ptrdiff_t ix =
                                static_cast<std::ptrdiff_t>(ox * spec.stride + kw) -
                                static_cast<std::ptrdiff_t>(spec.padding);
                            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(in_w)) {
                                continue;
                            }
                            irow[static_cast<std::size_t>(ix)] += srow[oy * ow + ox];
                        }
                    }
                }
            }
        }
    }
}

tensor im2col(const tensor& image, const conv2d_spec& spec) {
    REDUCE_CHECK(image.dim() == 3, "im2col expects [C,H,W], got " << image.describe());
    REDUCE_CHECK(image.extent(0) == spec.in_channels,
                 "im2col channel mismatch: image has " << image.extent(0)
                                                       << ", spec expects "
                                                       << spec.in_channels);
    const std::size_t in_h = image.extent(1);
    const std::size_t in_w = image.extent(2);
    tensor columns({spec.patch_size(), spec.out_h(in_h) * spec.out_w(in_w)});
    im2col_batch(image.raw(), 1, in_h, in_w, spec, columns.raw());
    return columns;
}

tensor col2im(const tensor& columns, const conv2d_spec& spec, std::size_t in_h,
              std::size_t in_w) {
    REDUCE_CHECK(columns.dim() == 2, "col2im expects rank-2 input, got " << columns.describe());
    const std::size_t oh = spec.out_h(in_h);
    const std::size_t ow = spec.out_w(in_w);
    REDUCE_CHECK(columns.extent(0) == spec.patch_size() && columns.extent(1) == oh * ow,
                 "col2im shape mismatch: " << columns.describe());
    tensor image({spec.in_channels, in_h, in_w});
    col2im_batch(columns.raw(), 1, in_h, in_w, spec, image.raw());
    return image;
}

std::vector<std::size_t> conv_active_patch_rows(const conv2d_spec& spec, std::size_t in_h,
                                                std::size_t in_w) {
    const std::size_t oh = spec.out_h(in_h);
    const std::size_t ow = spec.out_w(in_w);
    // A tap (ky, kx) is live when SOME output position puts it in bounds in
    // both axes; otherwise its whole patch row lowers to exact zeros.
    std::vector<bool> ky_live(spec.kernel_h, false);
    std::vector<bool> kx_live(spec.kernel_w, false);
    for (std::size_t ky = 0; ky < spec.kernel_h; ++ky) {
        for (std::size_t oy = 0; oy < oh; ++oy) {
            const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy * spec.stride + ky) -
                                      static_cast<std::ptrdiff_t>(spec.padding);
            if (iy >= 0 && iy < static_cast<std::ptrdiff_t>(in_h)) {
                ky_live[ky] = true;
                break;
            }
        }
    }
    for (std::size_t kx = 0; kx < spec.kernel_w; ++kx) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
            const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(ox * spec.stride + kx) -
                                      static_cast<std::ptrdiff_t>(spec.padding);
            if (ix >= 0 && ix < static_cast<std::ptrdiff_t>(in_w)) {
                kx_live[kx] = true;
                break;
            }
        }
    }
    std::vector<std::size_t> rows;
    rows.reserve(spec.patch_size());
    for (std::size_t c = 0; c < spec.in_channels; ++c) {
        for (std::size_t ky = 0; ky < spec.kernel_h; ++ky) {
            for (std::size_t kx = 0; kx < spec.kernel_w; ++kx) {
                if (ky_live[ky] && kx_live[kx]) {
                    rows.push_back((c * spec.kernel_h + ky) * spec.kernel_w + kx);
                }
            }
        }
    }
    return rows;
}

namespace {

void check_conv_inputs(const tensor& input, const tensor& weight, const conv2d_spec& spec) {
    REDUCE_CHECK(input.dim() == 4, "conv2d expects input [N,C,H,W], got " << input.describe());
    REDUCE_CHECK(weight.dim() == 4,
                 "conv2d expects weight [O,C,kh,kw], got " << weight.describe());
    REDUCE_CHECK(input.extent(1) == spec.in_channels,
                 "conv2d input channels " << input.extent(1) << " != spec " << spec.in_channels);
    REDUCE_CHECK(weight.extent(0) == spec.out_channels && weight.extent(1) == spec.in_channels &&
                     weight.extent(2) == spec.kernel_h && weight.extent(3) == spec.kernel_w,
                 "conv2d weight " << weight.describe() << " does not match spec");
}

void check_conv_backward_shapes(const tensor& input, const tensor& weight,
                                const tensor& grad_output, const conv2d_spec& spec,
                                const tensor& grad_input) {
    check_conv_inputs(input, weight, spec);
    const std::size_t batch = input.extent(0);
    const std::size_t oh = spec.out_h(input.extent(2));
    const std::size_t ow = spec.out_w(input.extent(3));
    REDUCE_CHECK(grad_output.dim() == 4 && grad_output.extent(0) == batch &&
                     grad_output.extent(1) == spec.out_channels && grad_output.extent(2) == oh &&
                     grad_output.extent(3) == ow,
                 "conv2d grad_output " << grad_output.describe() << " does not match geometry");
    REDUCE_CHECK(grad_input.shape() == input.shape(),
                 "conv2d grad_input " << grad_input.describe() << " does not match input");
}

/// Row-subset whole-batch lowering: like im2col_batch but emits only the
/// listed patch rows, compacted; dst is [nrows, batch*oh*ow].
void im2col_batch_rows(const float* input, std::size_t batch, std::size_t in_h,
                       std::size_t in_w, const conv2d_spec& spec, const std::size_t* rows,
                       std::size_t nrows, float* dst) {
    const std::size_t total_cols = batch * spec.out_h(in_h) * spec.out_w(in_w);
    for (std::size_t r = 0; r < nrows; ++r) {
        lower_patch_row(input, batch, in_h, in_w, spec, rows[r], dst + r * total_cols);
    }
}

/// Row-subset adjoint: like col2im_batch but `columns` is the compact
/// [nrows, batch*oh*ow] matrix holding only the listed patch rows
/// (strictly ascending). Skipped rows are the all-padding taps, whose full
/// col2im contribution is zero work (every tap lands out of bounds), so
/// each input pixel's += chain is byte-identical to the full adjoint —
/// unconditionally, for any gradient values.
void col2im_batch_rows(const float* columns, std::size_t batch, std::size_t in_h,
                       std::size_t in_w, const conv2d_spec& spec, const std::size_t* rows,
                       std::size_t nrows, float* dst) {
    const std::size_t oh = spec.out_h(in_h);
    const std::size_t ow = spec.out_w(in_w);
    const std::size_t out_cols = oh * ow;
    const std::size_t total_cols = batch * out_cols;
    const std::size_t image_elems = spec.in_channels * in_h * in_w;
    const std::size_t taps = spec.kernel_h * spec.kernel_w;
    // Every destination pixel's += chain visits the listed patch rows in
    // ascending order — the full adjoint's per-pixel order with the
    // zero-contribution (all-padding) rows absent.
    for (std::size_t r = 0; r < nrows; ++r) {
        const std::size_t patch_row = rows[r];
        const std::size_t c = patch_row / taps;
        const std::size_t kh = (patch_row % taps) / spec.kernel_w;
        const std::size_t kw = patch_row % spec.kernel_w;
        const float* prow = columns + r * total_cols;
        for (std::size_t n = 0; n < batch; ++n) {
            float* img = dst + n * image_elems;
            const float* srow = prow + n * out_cols;
            for (std::size_t oy = 0; oy < oh; ++oy) {
                const std::ptrdiff_t iy =
                    static_cast<std::ptrdiff_t>(oy * spec.stride + kh) -
                    static_cast<std::ptrdiff_t>(spec.padding);
                if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(in_h)) { continue; }
                float* irow = img + (c * in_h + static_cast<std::size_t>(iy)) * in_w;
                for (std::size_t ox = 0; ox < ow; ++ox) {
                    const std::ptrdiff_t ix =
                        static_cast<std::ptrdiff_t>(ox * spec.stride + kw) -
                        static_cast<std::ptrdiff_t>(spec.padding);
                    if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(in_w)) { continue; }
                    irow[static_cast<std::size_t>(ix)] += srow[oy * ow + ox];
                }
            }
        }
    }
}

/// True when any of the `count` floats at `p` is Inf or NaN — has every
/// exponent bit set. Branch-free integer compares OR-ed together, so the
/// loop vectorizes: the conv drivers run it on every call that can skip.
bool any_nonfinite(const float* p, std::size_t count) {
    constexpr std::uint32_t exponent = 0x7f800000u;
    std::uint32_t hit = 0;
    for (std::size_t i = 0; i < count; ++i) {
        std::uint32_t bits;
        std::memcpy(&bits, p + i, sizeof bits);
        hit |= static_cast<std::uint32_t>((bits & exponent) == exponent);
    }
    return hit != 0;
}

/// True when some weight of the [out_c, patch] matrix `w` in a column
/// outside `rows` is Inf or NaN.
bool skipped_columns_nonfinite(const float* w, std::size_t out_c, std::size_t patch,
                               const std::vector<std::size_t>& rows) {
    if (!any_nonfinite(w, out_c * patch)) { return false; }
    std::vector<bool> active(patch, false);
    for (const std::size_t r : rows) { active[r] = true; }
    for (std::size_t oc = 0; oc < out_c; ++oc) {
        for (std::size_t j = 0; j < patch; ++j) {
            if (!active[j] && !std::isfinite(w[oc * patch + j])) { return true; }
        }
    }
    return false;
}

}  // namespace

tensor conv2d_forward(const tensor& input, const tensor& weight, const tensor& bias,
                      const conv2d_spec& spec) {
    check_conv_inputs(input, weight, spec);
    const std::size_t batch = input.extent(0);
    const std::size_t in_h = input.extent(2);
    const std::size_t in_w = input.extent(3);
    const std::size_t oh = spec.out_h(in_h);
    const std::size_t ow = spec.out_w(in_w);
    if (!bias.empty()) {
        REDUCE_CHECK(bias.dim() == 1 && bias.extent(0) == spec.out_channels,
                     "conv2d bias " << bias.describe() << " does not match out_channels");
    }

    const std::size_t patch = spec.patch_size();
    const std::size_t plane = oh * ow;
    const std::size_t image_elems = spec.in_channels * in_h * in_w;
    tensor output({batch, spec.out_channels, oh, ow});
    float* out_ptr = output.raw();
    // The weight tensor [O, C, kh, kw] IS the lowered [O, patch] matrix —
    // row-major contiguity makes the reshape free (the seed copied it).
    const float* weight2d = weight.raw();

    // All-padding patch rows lower to exact zeros, so they are neither
    // lowered nor multiplied (gemm_k_subset) — unless a weight in a skipped
    // column is Inf or NaN, whose NaN products the full GEMM keeps.
    const std::vector<std::size_t> rows = conv_active_patch_rows(spec, in_h, in_w);
    const bool skip = rows.size() != patch &&
                      !skipped_columns_nonfinite(weight2d, spec.out_channels, patch, rows);
    const std::size_t krows = skip ? rows.size() : patch;
    const gemm_k_subset subset{rows.data(), rows.size(), patch};

    workspace& ws = workspace::local();
    const std::size_t chunk = images_per_chunk(krows + spec.out_channels, plane, batch);
    for (std::size_t n0 = 0; n0 < batch; n0 += chunk) {
        const std::size_t nb = std::min(chunk, batch - n0);
        const std::size_t cols = nb * plane;
        const float* src = input.raw() + n0 * image_elems;
        workspace::buffer colbuf = ws.acquire(krows * cols);
        if (skip) {
            im2col_batch_rows(src, nb, in_h, in_w, spec, rows.data(), krows, colbuf.data());
        } else {
            im2col_batch(src, nb, in_h, in_w, spec, colbuf.data());
        }
        workspace::buffer outbuf = ws.acquire(spec.out_channels * cols);
        gemm_nn(spec.out_channels, cols, patch, weight2d, patch, colbuf.data(), cols,
                outbuf.data(), cols, /*accumulate=*/false, ws, skip ? &subset : nullptr);
        scatter_lowered_output(outbuf.data(), cols, nb, plane, spec.out_channels, bias,
                               out_ptr, n0);
    }
    return output;
}

void conv2d_backward_acc(const tensor& input, const tensor& weight, const tensor& grad_output,
                         const conv2d_spec& spec, tensor& grad_input, tensor& grad_weight,
                         tensor& grad_bias) {
    check_conv_backward_shapes(input, weight, grad_output, spec, grad_input);
    REDUCE_CHECK(grad_weight.shape() == weight.shape(),
                 "conv2d grad_weight " << grad_weight.describe() << " does not match weight");
    REDUCE_CHECK(grad_bias.dim() == 1 && grad_bias.extent(0) == spec.out_channels,
                 "conv2d grad_bias " << grad_bias.describe() << " does not match out_channels");
    const std::size_t batch = input.extent(0);
    const std::size_t in_h = input.extent(2);
    const std::size_t in_w = input.extent(3);
    const std::size_t patch = spec.patch_size();
    const std::size_t plane = spec.out_h(in_h) * spec.out_w(in_w);
    const std::size_t image_elems = spec.in_channels * in_h * in_w;
    const std::size_t out_c = spec.out_channels;
    const float* in = input.raw();
    const float* weight2d = weight.raw();
    const float* grad_out = grad_output.raw();
    float* gin = grad_input.raw();
    float* gw = grad_weight.raw();
    float* gb = grad_bias.raw();

    // All-padding patch rows are skipped in both directions:
    //
    //   * dX: the column gradient is computed only for active rows (compact
    //     W columns via gemm_tn with unchanged k = out_c chains) and
    //     scattered through col2im_batch_rows — byte-identical, because the
    //     full col2im skips every tap of an all-padding row anyway;
    //   * dW: active columns accumulate in a compact copy of grad_weight
    //     with the full per-chunk acc=true chain and are written back. A
    //     skipped column's full result is grad_weight plus sums of exact
    //     zero products, which are +0 when dY is finite: exactly the
    //     `+ 0.0f` applied below (it turns a -0 entry into +0, as the full
    //     GEMM does). A dY holding Inf or NaN makes those products NaN, so
    //     such a call lowers every row.
    //
    // db and chunking are untouched: the chunk split is the full-row one
    // (2*patch + out_c), so the dW/db accumulation order never depends on
    // whether rows are skipped.
    const std::vector<std::size_t> rows = conv_active_patch_rows(spec, in_h, in_w);
    const bool skip =
        rows.size() != patch && !any_nonfinite(grad_out, grad_output.numel());
    const std::size_t krows = skip ? rows.size() : patch;

    workspace& ws = workspace::local();
    workspace::buffer wcompact;
    workspace::buffer dwcompact;
    if (skip) {
        wcompact = ws.acquire(out_c * krows);
        dwcompact = ws.acquire(out_c * krows);
        for (std::size_t oc = 0; oc < out_c; ++oc) {
            for (std::size_t j = 0; j < krows; ++j) {
                wcompact.data()[oc * krows + j] = weight2d[oc * patch + rows[j]];
                dwcompact.data()[oc * krows + j] = gw[oc * patch + rows[j]];
            }
        }
    }

    // Three slabs live at once here (columns, lowered dY, column gradient).
    const std::size_t chunk = images_per_chunk(2 * patch + out_c, plane, batch);
    for (std::size_t n0 = 0; n0 < batch; n0 += chunk) {
        const std::size_t nb = std::min(chunk, batch - n0);
        const std::size_t cols = nb * plane;
        workspace::buffer colbuf = ws.acquire(krows * cols);
        if (skip) {
            im2col_batch_rows(in + n0 * image_elems, nb, in_h, in_w, spec, rows.data(), krows,
                              colbuf.data());
        } else {
            im2col_batch(in + n0 * image_elems, nb, in_h, in_w, spec, colbuf.data());
        }

        // Gather dY from [N, O, plane] into the lowered [O, nb*plane]
        // layout.
        workspace::buffer gobuf = ws.acquire(out_c * cols);
        for (std::size_t oc = 0; oc < out_c; ++oc) {
            float* drow = gobuf.data() + oc * cols;
            for (std::size_t n = 0; n < nb; ++n) {
                const float* src = grad_out + ((n0 + n) * out_c + oc) * plane;
                std::memcpy(drow + n * plane, src, plane * sizeof(float));
            }
        }

        // dW += dY · colsᵀ — one GEMM for the whole chunk, straight into
        // the parameter gradient (or its compact copy when skipping; the
        // k = cols chain per output element is identical either way).
        gemm_nt(out_c, krows, cols, gobuf.data(), cols, colbuf.data(), cols,
                skip ? dwcompact.data() : gw, krows, /*accumulate=*/true, ws);

        // db += row sums of dY, one serial chain per channel.
        for (std::size_t oc = 0; oc < out_c; ++oc) {
            const float* row = gobuf.data() + oc * cols;
            float acc = 0.0f;
            for (std::size_t i = 0; i < cols; ++i) { acc += row[i]; }
            gb[oc] += acc;
        }

        // dX += col2im(Wᵀ · dY); the column gradient reuses the im2col slab
        // shape, and col2im accumulates in place.
        workspace::buffer gradcols = ws.acquire(krows * cols);
        gemm_tn(krows, cols, out_c, skip ? wcompact.data() : weight2d, krows, gobuf.data(),
                cols, gradcols.data(), cols, /*accumulate=*/false, ws);
        if (skip) {
            col2im_batch_rows(gradcols.data(), nb, in_h, in_w, spec, rows.data(), krows,
                              gin + n0 * image_elems);
        } else {
            col2im_batch(gradcols.data(), nb, in_h, in_w, spec, gin + n0 * image_elems);
        }
    }

    if (skip && batch > 0) {
        for (std::size_t oc = 0; oc < out_c; ++oc) {
            float* gw_row = gw + oc * patch;
            for (std::size_t j = 0; j < patch; ++j) { gw_row[j] += 0.0f; }
            for (std::size_t j = 0; j < krows; ++j) {
                gw_row[rows[j]] = dwcompact.data()[oc * krows + j];
            }
        }
    }
}

conv2d_grads conv2d_backward(const tensor& input, const tensor& weight,
                             const tensor& grad_output, const conv2d_spec& spec) {
    conv2d_grads grads{tensor(input.shape()), tensor(weight.shape()),
                       tensor({spec.out_channels})};
    conv2d_backward_acc(input, weight, grad_output, spec, grads.grad_input, grads.grad_weight,
                        grads.grad_bias);
    return grads;
}

pool2d_result max_pool2d_forward(const tensor& input, const pool2d_spec& spec) {
    REDUCE_CHECK(input.dim() == 4, "max_pool2d expects [N,C,H,W], got " << input.describe());
    REDUCE_CHECK(spec.kernel > 0 && spec.stride > 0, "pool kernel/stride must be positive");
    const std::size_t batch = input.extent(0);
    const std::size_t channels = input.extent(1);
    const std::size_t in_h = input.extent(2);
    const std::size_t in_w = input.extent(3);
    REDUCE_CHECK(in_h >= spec.kernel && in_w >= spec.kernel,
                 "pool kernel larger than input " << input.describe());
    const std::size_t oh = (in_h - spec.kernel) / spec.stride + 1;
    const std::size_t ow = (in_w - spec.kernel) / spec.stride + 1;

    pool2d_result result{tensor({batch, channels, oh, ow}), {}};
    result.argmax.assign(batch * channels * oh * ow, 0);
    const float* src = input.raw();
    float* dst = result.output.raw();
    std::size_t out_idx = 0;
    for (std::size_t n = 0; n < batch; ++n) {
        for (std::size_t c = 0; c < channels; ++c) {
            const float* plane = src + (n * channels + c) * in_h * in_w;
            for (std::size_t oy = 0; oy < oh; ++oy) {
                for (std::size_t ox = 0; ox < ow; ++ox, ++out_idx) {
                    float best = -std::numeric_limits<float>::infinity();
                    std::size_t best_idx = 0;
                    for (std::size_t ky = 0; ky < spec.kernel; ++ky) {
                        const std::size_t iy = oy * spec.stride + ky;
                        for (std::size_t kx = 0; kx < spec.kernel; ++kx) {
                            const std::size_t ix = ox * spec.stride + kx;
                            const std::size_t flat = iy * in_w + ix;
                            if (plane[flat] > best) {
                                best = plane[flat];
                                best_idx = (n * channels + c) * in_h * in_w + flat;
                            }
                        }
                    }
                    dst[out_idx] = best;
                    result.argmax[out_idx] = best_idx;
                }
            }
        }
    }
    return result;
}

tensor max_pool2d_backward(const tensor& grad_output, const std::vector<std::size_t>& argmax,
                           const shape_t& input_shape) {
    REDUCE_CHECK(grad_output.numel() == argmax.size(),
                 "pool backward: argmax size " << argmax.size() << " != grad elements "
                                               << grad_output.numel());
    tensor grad_input(input_shape);
    // Validate once up front (max element) instead of per scatter: the hot
    // loop below then runs branch-free.
    if (!argmax.empty()) {
        const std::size_t worst = *std::max_element(argmax.begin(), argmax.end());
        REDUCE_CHECK(worst < grad_input.numel(),
                     "pool backward: argmax " << worst << " out of range for "
                                              << grad_input.describe());
    }
    float* dst = grad_input.raw();
    const float* src = grad_output.raw();
    for (std::size_t i = 0; i < argmax.size(); ++i) { dst[argmax[i]] += src[i]; }
    return grad_input;
}

tensor global_avg_pool_forward(const tensor& input) {
    REDUCE_CHECK(input.dim() == 4, "global_avg_pool expects [N,C,H,W], got " << input.describe());
    const std::size_t batch = input.extent(0);
    const std::size_t channels = input.extent(1);
    const std::size_t plane = input.extent(2) * input.extent(3);
    REDUCE_CHECK(plane > 0, "global_avg_pool over empty plane");
    tensor output({batch, channels});
    const float* src = input.raw();
    float* dst = output.raw();
    const float inv = 1.0f / static_cast<float>(plane);
    for (std::size_t nc = 0; nc < batch * channels; ++nc) {
        float acc = 0.0f;
        const float* p = src + nc * plane;
        for (std::size_t i = 0; i < plane; ++i) { acc += p[i]; }
        dst[nc] = acc * inv;
    }
    return output;
}

tensor global_avg_pool_backward(const tensor& grad_output, const shape_t& input_shape) {
    REDUCE_CHECK(input_shape.size() == 4, "global_avg_pool backward expects rank-4 input shape");
    const std::size_t batch = input_shape[0];
    const std::size_t channels = input_shape[1];
    const std::size_t plane = input_shape[2] * input_shape[3];
    REDUCE_CHECK(grad_output.dim() == 2 && grad_output.extent(0) == batch &&
                     grad_output.extent(1) == channels,
                 "global_avg_pool backward grad " << grad_output.describe() << " mismatch");
    tensor grad_input(input_shape);
    const float* src = grad_output.raw();
    float* dst = grad_input.raw();
    const float inv = 1.0f / static_cast<float>(plane);
    for (std::size_t nc = 0; nc < batch * channels; ++nc) {
        const float g = src[nc] * inv;
        float* p = dst + nc * plane;
        for (std::size_t i = 0; i < plane; ++i) { p[i] = g; }
    }
    return grad_input;
}

}  // namespace reduce
