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

// Lowering budget: cap on the workspace slabs one chunk holds at once.
// Only chunk GEOMETRY depends on it, so any budget yields the same forward
// numbers; the backward dW/db accumulation order follows the chunk split,
// which is itself a pure function of shapes and this budget.
std::atomic<std::size_t> lowering_budget_bytes{64u << 20};

/// Images per chunk: as many as the budget allows at `per_image` floats
/// each, at least 1, at most the batch.
std::size_t images_per_chunk(std::size_t per_image, std::size_t batch) {
    const std::size_t bytes = per_image * sizeof(float);
    if (bytes == 0) { return std::max<std::size_t>(batch, 1); }
    const std::size_t fit = lowering_budget_bytes.load(std::memory_order_relaxed) / bytes;
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

/// The implicit patch matrix of one conv call. Each image [C, H, W] is
/// staged as [C, SH, SW]: the image inside a zero border of `top`/`left`
/// (and bottom/right) rows and columns, so lowered element (patch row r,
/// column j) is staged[row_off[r] + col_off[j]] with no bounds test:
///   row_off = c*SH*SW + (ky - lo_y)*SW + (kx - lo_x)   (one per row kept)
///   col_off = n*image + oy*s*SW + ox*s              (one per column)
/// where image = C*SH*SW. The border is only as wide as the kept rows'
/// taps reach into the padding (lo_y = pad - top, lo_x = pad - left): the
/// full padding when every row is kept, none at all for a 1x1-spatial
/// layer that keeps only its center taps. With no border the staged
/// layout IS the [C, H, W] layout, so the images are read (and, for dX,
/// written) in place and nothing is copied.
struct implicit_lowering {
    std::size_t image_elems;  ///< C*H*W
    std::size_t image;        ///< staged floats per image
    std::vector<std::size_t> row_off;
    std::vector<std::size_t> col_off;
    /// Staged offset of each element of one [C, H, W] image; empty when
    /// there is no border.
    std::vector<std::size_t> interior_off;

    /// Tables for the patch rows `rows` (ascending) and the columns of
    /// `images` images.
    implicit_lowering(const conv2d_spec& spec, std::size_t in_h, std::size_t in_w,
                      const std::vector<std::size_t>& rows, std::size_t images)
        : image_elems(spec.in_channels * in_h * in_w) {
        const std::size_t taps = spec.kernel_h * spec.kernel_w;
        const std::size_t oh = spec.out_h(in_h);
        const std::size_t ow = spec.out_w(in_w);
        const std::size_t pad = spec.padding;
        // Padded coordinates the kept taps read: rows [ky_lo, (oh-1)*s +
        // ky_hi], columns likewise; the interior is [pad, pad + H).
        std::size_t ky_lo = spec.kernel_h, ky_hi = 0, kx_lo = spec.kernel_w, kx_hi = 0;
        for (const std::size_t r : rows) {
            const std::size_t ky = (r % taps) / spec.kernel_w;
            const std::size_t kx = r % spec.kernel_w;
            ky_lo = std::min(ky_lo, ky);
            ky_hi = std::max(ky_hi, ky);
            kx_lo = std::min(kx_lo, kx);
            kx_hi = std::max(kx_hi, kx);
        }
        const std::size_t lo_y = std::min(ky_lo, pad);
        const std::size_t lo_x = std::min(kx_lo, pad);
        const std::size_t top = pad - lo_y;
        const std::size_t left = pad - lo_x;
        const std::size_t sh =
            std::max((oh - 1) * spec.stride + ky_hi + 1, pad + in_h) - lo_y;
        const std::size_t sw =
            std::max((ow - 1) * spec.stride + kx_hi + 1, pad + in_w) - lo_x;
        image = spec.in_channels * sh * sw;

        row_off.reserve(rows.size());
        for (const std::size_t r : rows) {
            const std::size_t c = r / taps;
            const std::size_t ky = (r % taps) / spec.kernel_w;
            const std::size_t kx = r % spec.kernel_w;
            row_off.push_back((c * sh + ky - lo_y) * sw + kx - lo_x);
        }
        col_off.reserve(images * oh * ow);
        for (std::size_t n = 0; n < images; ++n) {
            for (std::size_t oy = 0; oy < oh; ++oy) {
                for (std::size_t ox = 0; ox < ow; ++ox) {
                    col_off.push_back(n * image + (oy * sw + ox) * spec.stride);
                }
            }
        }
        if (image != image_elems) {
            interior_off.reserve(image_elems);
            for (std::size_t c = 0; c < spec.in_channels; ++c) {
                for (std::size_t y = 0; y < in_h; ++y) {
                    for (std::size_t x = 0; x < in_w; ++x) {
                        interior_off.push_back((c * sh + top + y) * sw + left + x);
                    }
                }
            }
        }
    }

    /// The staged form of the `nb` images at `images`: `images` itself
    /// when there is no border, else a copy in `slab` (leased from `ws`
    /// unless the slab is already held) with its border zeroed — on every
    /// call, since a leased slab holds stale data.
    template <typename T>
    T* staged(T* images, std::size_t nb, workspace& ws, workspace::buffer& slab) const {
        if (interior_off.empty()) { return images; }
        if (slab.size() == 0) { slab = ws.acquire(nb * image); }
        float* dst = slab.data();
        std::memset(dst, 0, nb * image * sizeof(float));
        for (std::size_t n = 0; n < nb; ++n, dst += image, images += image_elems) {
            for (std::size_t i = 0; i < image_elems; ++i) { dst[interior_off[i]] = images[i]; }
        }
        return slab.data();
    }

    /// Copies the interior of `nb` staged images back to [C, H, W] at
    /// `images`; nothing to do when they were staged in place.
    void unstage(const float* staged, std::size_t nb, float* images) const {
        if (interior_off.empty()) { return; }
        for (std::size_t n = 0; n < nb; ++n, staged += image, images += image_elems) {
            for (std::size_t i = 0; i < image_elems; ++i) { images[i] = staged[interior_off[i]]; }
        }
    }

    /// The adjoint: adds row r of `grad_cols` [rows kept, cols] onto
    /// staged[row_off[r] + col_off[j]], patch rows ascending. A pixel gets
    /// at most one term per patch row, so its += chain visits the kept
    /// rows in ascending order; terms landing on the border are dropped by
    /// unstage.
    void scatter(const float* grad_cols, std::size_t cols, float* staged) const {
        for (std::size_t r = 0; r < row_off.size(); ++r) {
            const float* src = grad_cols + r * cols;
            float* dst = staged + row_off[r];
            for (std::size_t j = 0; j < cols; ++j) { dst[col_off[j]] += src[j]; }
        }
    }

    gemm_gather patches(const float* staged) const {
        return {staged, row_off.data(), col_off.data()};
    }
    gemm_gather patches_transposed(const float* staged) const {
        return {staged, col_off.data(), row_off.data()};
    }
};

/// Calls fn(column-matrix index, image index) for every in-bounds tap of
/// one [C, H, W] image lowered to [patch, oh*ow], patch rows ascending.
template <typename Fn>
void for_each_tap(const conv2d_spec& spec, std::size_t in_h, std::size_t in_w, Fn&& fn) {
    const std::size_t oh = spec.out_h(in_h);
    const std::size_t ow = spec.out_w(in_w);
    std::size_t q = 0;
    for (std::size_t c = 0; c < spec.in_channels; ++c) {
        for (std::size_t ky = 0; ky < spec.kernel_h; ++ky) {
            for (std::size_t kx = 0; kx < spec.kernel_w; ++kx) {
                for (std::size_t oy = 0; oy < oh; ++oy) {
                    // Padded coordinates; the tap is in bounds when the
                    // unpadded one lands inside the image.
                    const std::size_t py = oy * spec.stride + ky;
                    for (std::size_t ox = 0; ox < ow; ++ox, ++q) {
                        const std::size_t px = ox * spec.stride + kx;
                        if (py < spec.padding || py - spec.padding >= in_h ||
                            px < spec.padding || px - spec.padding >= in_w) {
                            continue;
                        }
                        fn(q, (c * in_h + py - spec.padding) * in_w + px - spec.padding);
                    }
                }
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

tensor im2col(const tensor& image, const conv2d_spec& spec) {
    REDUCE_CHECK(image.dim() == 3, "im2col expects [C,H,W], got " << image.describe());
    REDUCE_CHECK(image.extent(0) == spec.in_channels,
                 "im2col channel mismatch: image has " << image.extent(0)
                                                       << ", spec expects "
                                                       << spec.in_channels);
    const std::size_t in_h = image.extent(1);
    const std::size_t in_w = image.extent(2);
    tensor columns({spec.patch_size(), spec.out_h(in_h) * spec.out_w(in_w)});
    const float* src = image.raw();
    float* dst = columns.raw();
    for_each_tap(spec, in_h, in_w, [&](std::size_t q, std::size_t i) { dst[q] = src[i]; });
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
    const float* src = columns.raw();
    float* dst = image.raw();
    for_each_tap(spec, in_h, in_w, [&](std::size_t q, std::size_t i) { dst[i] += src[q]; });
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
                                const tensor& grad_weight, const tensor& grad_bias) {
    check_conv_inputs(input, weight, spec);
    const std::size_t batch = input.extent(0);
    const std::size_t oh = spec.out_h(input.extent(2));
    const std::size_t ow = spec.out_w(input.extent(3));
    REDUCE_CHECK(grad_output.dim() == 4 && grad_output.extent(0) == batch &&
                     grad_output.extent(1) == spec.out_channels && grad_output.extent(2) == oh &&
                     grad_output.extent(3) == ow,
                 "conv2d grad_output " << grad_output.describe() << " does not match geometry");
    REDUCE_CHECK(grad_weight.shape() == weight.shape(),
                 "conv2d grad_weight " << grad_weight.describe() << " does not match weight");
    REDUCE_CHECK(grad_bias.dim() == 1 && grad_bias.extent(0) == spec.out_channels,
                 "conv2d grad_bias " << grad_bias.describe() << " does not match out_channels");
}

/// Every patch row, ascending: the row list of a call that skips none.
std::vector<std::size_t> all_patch_rows(std::size_t patch) {
    std::vector<std::size_t> rows(patch);
    for (std::size_t r = 0; r < patch; ++r) { rows[r] = r; }
    return rows;
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
    // gathered nor multiplied (gemm_k_subset) — unless a weight in a skipped
    // column is Inf or NaN, whose NaN products the full GEMM keeps. A
    // geometry with no live row at all runs the full rows (over the zero
    // border), which leaves no empty operand to lease.
    std::vector<std::size_t> rows = conv_active_patch_rows(spec, in_h, in_w);
    const bool skip = !rows.empty() && rows.size() != patch &&
                      !skipped_columns_nonfinite(weight2d, spec.out_channels, patch, rows);
    if (!skip) { rows = all_patch_rows(patch); }
    const gemm_k_subset subset{rows.data(), rows.size(), patch};

    // The budget sizes the staged images (at most the fully padded ones)
    // plus the chunk's GEMM output.
    const std::size_t padded_image =
        spec.in_channels * (in_h + 2 * spec.padding) * (in_w + 2 * spec.padding);
    const std::size_t chunk = images_per_chunk(padded_image + spec.out_channels * plane, batch);
    const implicit_lowering lowering(spec, in_h, in_w, rows, chunk);
    workspace& ws = workspace::local();
    for (std::size_t n0 = 0; n0 < batch; n0 += chunk) {
        const std::size_t nb = std::min(chunk, batch - n0);
        const std::size_t cols = nb * plane;
        workspace::buffer slab;
        const float* staged = lowering.staged(input.raw() + n0 * image_elems, nb, ws, slab);
        workspace::buffer outbuf = ws.acquire(spec.out_channels * cols);
        gemm_nn_gather(spec.out_channels, cols, patch, weight2d, patch, lowering.patches(staged),
                       outbuf.data(), cols, /*accumulate=*/false, ws,
                       skip ? &subset : nullptr);
        scatter_lowered_output(outbuf.data(), cols, nb, plane, spec.out_channels, bias,
                               out_ptr, n0);
    }
    return output;
}

namespace {

/// The accumulating backward behind both entry points. `weight2d` and
/// `gin` are null when the caller wants no dX: the column-gradient GEMM,
/// its staging and its scatter are then skipped, and dW/db run exactly the
/// chains they run with dX.
void backward_acc(const tensor& input, const float* weight2d, const tensor& grad_output,
                  const conv2d_spec& spec, float* gin, tensor& grad_weight, tensor& grad_bias) {
    const std::size_t batch = input.extent(0);
    const std::size_t in_h = input.extent(2);
    const std::size_t in_w = input.extent(3);
    const std::size_t patch = spec.patch_size();
    const std::size_t plane = spec.out_h(in_h) * spec.out_w(in_w);
    const std::size_t image_elems = spec.in_channels * in_h * in_w;
    const std::size_t out_c = spec.out_channels;
    const float* in = input.raw();
    const float* grad_out = grad_output.raw();
    float* gw = grad_weight.raw();
    float* gb = grad_bias.raw();

    // All-padding patch rows are skipped in both directions:
    //
    //   * dX: the column gradient is computed only for kept rows (compact
    //     W columns via gemm_tn with unchanged k = out_c chains) and
    //     scattered over the kept rows — byte-identical, because every tap
    //     of an all-padding row lands on the staged border anyway;
    //   * dW: kept columns accumulate in a compact copy of grad_weight
    //     with the full per-chunk acc=true chain and are written back. A
    //     skipped column's full result is grad_weight plus sums of exact
    //     zero products, which are +0 when dY is finite: exactly the
    //     `+ 0.0f` applied below (it turns a -0 entry into +0, as the full
    //     GEMM does). A dY holding Inf or NaN makes those products NaN, so
    //     such a call keeps every row, as does a geometry with no live row.
    //
    // db and chunking are untouched: the chunk split is the full-row one
    // (2*patch + out_c), so the dW/db accumulation order never depends on
    // whether rows are skipped.
    std::vector<std::size_t> rows = conv_active_patch_rows(spec, in_h, in_w);
    const bool skip = !rows.empty() && rows.size() != patch &&
                      !any_nonfinite(grad_out, grad_output.numel());
    if (!skip) { rows = all_patch_rows(patch); }
    const std::size_t krows = rows.size();

    workspace& ws = workspace::local();
    workspace::buffer wcompact;
    workspace::buffer dwcompact;
    if (skip) {
        dwcompact = ws.acquire(out_c * krows);
        if (gin != nullptr) { wcompact = ws.acquire(out_c * krows); }
        for (std::size_t oc = 0; oc < out_c; ++oc) {
            for (std::size_t j = 0; j < krows; ++j) {
                dwcompact.data()[oc * krows + j] = gw[oc * patch + rows[j]];
                if (gin != nullptr) {
                    wcompact.data()[oc * krows + j] = weight2d[oc * patch + rows[j]];
                }
            }
        }
    }

    // The split that fixes the dW/db chains: it once sized three
    // materialized slabs (patch matrix, lowered dY, column gradient) and is
    // kept as is so every accumulation order stays the same.
    const std::size_t chunk = images_per_chunk((2 * patch + out_c) * plane, batch);
    const implicit_lowering lowering(spec, in_h, in_w, rows, chunk);
    for (std::size_t n0 = 0; n0 < batch; n0 += chunk) {
        const std::size_t nb = std::min(chunk, batch - n0);
        const std::size_t cols = nb * plane;
        workspace::buffer slab;
        const float* staged = lowering.staged(in + n0 * image_elems, nb, ws, slab);

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

        // dW += dY · Lᵀ — one GEMM for the whole chunk, gathering Lᵀ from
        // the staged images, straight into the parameter gradient (or its
        // compact copy when skipping; the k = cols chain per output element
        // is identical either way).
        gemm_nn_gather(out_c, krows, cols, gobuf.data(), cols,
                       lowering.patches_transposed(staged), skip ? dwcompact.data() : gw,
                       krows, /*accumulate=*/true, ws);

        // db += row sums of dY, one serial chain per channel.
        for (std::size_t oc = 0; oc < out_c; ++oc) {
            const float* row = gobuf.data() + oc * cols;
            float acc = 0.0f;
            for (std::size_t i = 0; i < cols; ++i) { acc += row[i]; }
            gb[oc] += acc;
        }

        // dX += scatter(Wᵀ · dY): the column gradient is added onto the
        // staged grad_input (in the slab the images used, if staging
        // copies), whose interior is then copied back.
        if (gin == nullptr) { continue; }
        workspace::buffer gradcols = ws.acquire(krows * cols);
        gemm_tn(krows, cols, out_c, skip ? wcompact.data() : weight2d, krows, gobuf.data(),
                cols, gradcols.data(), cols, /*accumulate=*/false, ws);
        float* gin_chunk = gin + n0 * image_elems;
        float* gin_staged = lowering.staged(gin_chunk, nb, ws, slab);
        lowering.scatter(gradcols.data(), cols, gin_staged);
        lowering.unstage(gin_staged, nb, gin_chunk);
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

}  // namespace

void conv2d_backward_acc(const tensor& input, const tensor& weight, const tensor& grad_output,
                         const conv2d_spec& spec, tensor& grad_input, tensor& grad_weight,
                         tensor& grad_bias) {
    check_conv_backward_shapes(input, weight, grad_output, spec, grad_weight, grad_bias);
    REDUCE_CHECK(grad_input.shape() == input.shape(),
                 "conv2d grad_input " << grad_input.describe() << " does not match input");
    backward_acc(input, weight.raw(), grad_output, spec, grad_input.raw(), grad_weight,
                 grad_bias);
}

void conv2d_param_grads_acc(const tensor& input, const tensor& grad_output,
                            const conv2d_spec& spec, tensor& grad_weight, tensor& grad_bias) {
    // grad_weight has the weight's shape, so it stands in for it in the
    // geometry checks; the weight values are only read by dX.
    check_conv_backward_shapes(input, grad_weight, grad_output, spec, grad_weight, grad_bias);
    backward_acc(input, nullptr, grad_output, spec, nullptr, grad_weight, grad_bias);
}

conv2d_grads conv2d_backward(const tensor& input, const tensor& weight,
                             const tensor& grad_output, const conv2d_spec& spec) {
    conv2d_grads grads{tensor(input.shape()), tensor(weight.shape()),
                       tensor({spec.out_channels})};
    conv2d_backward_acc(input, weight, grad_output, spec, grads.grad_input, grads.grad_weight,
                        grads.grad_bias);
    return grads;
}

namespace {

struct pool_geometry {
    std::size_t planes, in_h, in_w, oh, ow;
};

pool_geometry check_pool_input(const tensor& input, const pool2d_spec& spec) {
    REDUCE_CHECK(input.dim() == 4, "max_pool2d expects [N,C,H,W], got " << input.describe());
    REDUCE_CHECK(spec.kernel > 0 && spec.stride > 0, "pool kernel/stride must be positive");
    const std::size_t in_h = input.extent(2);
    const std::size_t in_w = input.extent(3);
    REDUCE_CHECK(in_h >= spec.kernel && in_w >= spec.kernel,
                 "pool kernel larger than input " << input.describe());
    return {input.extent(0) * input.extent(1), in_h, in_w, (in_h - spec.kernel) / spec.stride + 1,
            (in_w - spec.kernel) / spec.stride + 1};
}

// Both scans follow the visiting order documented in conv.h. `argmax`
// (flat input index per output) is skipped when null.

/// Any kernel and stride.
void pool_scan_general(const float* src, const pool_geometry& g, const pool2d_spec& spec,
                       float* dst, std::size_t* argmax) {
    std::size_t out_idx = 0;
    for (std::size_t p = 0; p < g.planes; ++p) {
        const std::size_t base = p * g.in_h * g.in_w;
        for (std::size_t oy = 0; oy < g.oh; ++oy) {
            for (std::size_t ox = 0; ox < g.ow; ++ox, ++out_idx) {
                std::size_t best_idx = base + oy * spec.stride * g.in_w + ox * spec.stride;
                float best = -std::numeric_limits<float>::infinity();
                for (std::size_t ky = 0; ky < spec.kernel; ++ky) {
                    const std::size_t row = base + (oy * spec.stride + ky) * g.in_w;
                    for (std::size_t kx = 0; kx < spec.kernel; ++kx) {
                        const std::size_t flat = row + ox * spec.stride + kx;
                        if (src[flat] > best) {
                            best = src[flat];
                            best_idx = flat;
                        }
                    }
                }
                dst[out_idx] = best;
                if (argmax != nullptr) { argmax[out_idx] = best_idx; }
            }
        }
    }
}

/// The 2x2 / stride-2 window every model uses, unrolled into selects: the
/// same four strict `>` steps in the same order as the general scan, with
/// no branch on the data.
template <bool with_argmax>
void pool_scan_2x2(const float* src, const pool_geometry& g, float* dst, std::size_t* argmax) {
    constexpr float neg_inf = -std::numeric_limits<float>::infinity();
    for (std::size_t p = 0; p < g.planes; ++p) {
        const std::size_t base = p * g.in_h * g.in_w;
        for (std::size_t oy = 0; oy < g.oh; ++oy) {
            const std::size_t top = base + 2 * oy * g.in_w;
            const float* r0 = src + top;
            const float* r1 = r0 + g.in_w;
            float* out = dst + (p * g.oh + oy) * g.ow;
            for (std::size_t ox = 0; ox < g.ow; ++ox) {
                const float a = r0[2 * ox];
                const float b = r0[2 * ox + 1];
                const float c = r1[2 * ox];
                const float d = r1[2 * ox + 1];
                float best = a > neg_inf ? a : neg_inf;
                const bool take_b = b > best;
                best = take_b ? b : best;
                const bool take_c = c > best;
                best = take_c ? c : best;
                const bool take_d = d > best;
                best = take_d ? d : best;
                out[ox] = best;
                if constexpr (with_argmax) {
                    std::size_t idx = top + 2 * ox;
                    idx = take_b ? top + 2 * ox + 1 : idx;
                    idx = take_c ? top + g.in_w + 2 * ox : idx;
                    idx = take_d ? top + g.in_w + 2 * ox + 1 : idx;
                    argmax[(p * g.oh + oy) * g.ow + ox] = idx;
                }
            }
        }
    }
}

void pool_scan(const float* src, const pool_geometry& g, const pool2d_spec& spec, float* dst,
               std::size_t* argmax) {
    if (spec.kernel != 2 || spec.stride != 2) {
        pool_scan_general(src, g, spec, dst, argmax);
    } else if (argmax != nullptr) {
        pool_scan_2x2<true>(src, g, dst, argmax);
    } else {
        pool_scan_2x2<false>(src, g, dst, nullptr);
    }
}

}  // namespace

pool2d_result max_pool2d_forward(const tensor& input, const pool2d_spec& spec) {
    const pool_geometry g = check_pool_input(input, spec);
    pool2d_result result{tensor({input.extent(0), input.extent(1), g.oh, g.ow}), {}};
    result.argmax.resize(result.output.numel());
    pool_scan(input.raw(), g, spec, result.output.raw(), result.argmax.data());
    return result;
}

tensor max_pool2d_values(const tensor& input, const pool2d_spec& spec) {
    const pool_geometry g = check_pool_input(input, spec);
    tensor output({input.extent(0), input.extent(1), g.oh, g.ow});
    pool_scan(input.raw(), g, spec, output.raw(), nullptr);
    return output;
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

}  // namespace reduce
