// micro_gemm — GEMM micro-benchmark and kernel correctness gate.
//
// Times the blocked matmul family (tensor/gemm.h) against the seed ikj/dot
// kernels it replaced, verifies both against a double-precision reference,
// and emits BENCH_gemm.json — the perf-trajectory artifact future PRs
// report against. It also times whole conv layers (conv2d_forward and
// conv2d_backward_acc, tensor/conv.h) at every distinct VGG11 x0.125
// geometry on 8x8x3 images, at batch 32 (a training step) and 200 (an
// eval), each gated bit for bit against a materialized im2col + GEMM
// lowering. Two fast paths a training episode takes are timed against
// what they replace: the first conv layer's parameter-only backward
// (conv2d_param_grads_acc) against the full backward with dX, and the
// unrolled 2x2 max pool (eval without argmax at batch 200, training with
// argmax at batch 32) against the general scan with argmax; each is gated
// bit for bit against its reference. The process exits non-zero on any
// MISMATCH and never on timing, so CI can gate on correctness without
// flaking on noise.
//
// Options:
//   --out PATH     JSON output path              (default BENCH_gemm.json)
//   --min-ms X     min measured ms per sample    (default 100)
//   --samples N    timing samples (best-of)      (default 3)
//
// Self-contained binary (no Google Benchmark): the Release perf smoke job
// runs it on machines without the benchmark library.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "tensor/conv.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace reduce;

namespace {

// ---- the seed kernels (pre-blocked baseline), kept verbatim for the
// ---- speedup denominator ---------------------------------------------------

tensor seed_matmul(const tensor& a, const tensor& b) {
    const std::size_t m = a.extent(0);
    const std::size_t k = a.extent(1);
    const std::size_t n = b.extent(1);
    tensor c({m, n});
    const float* pa = a.raw();
    const float* pb = b.raw();
    float* pc = c.raw();
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t p = 0; p < k; ++p) {
            const float aip = pa[i * k + p];
            if (aip == 0.0f) { continue; }
            const float* brow = pb + p * n;
            float* crow = pc + i * n;
            for (std::size_t j = 0; j < n; ++j) { crow[j] += aip * brow[j]; }
        }
    }
    return c;
}

tensor seed_matmul_nt(const tensor& a, const tensor& b) {
    const std::size_t m = a.extent(0);
    const std::size_t k = a.extent(1);
    const std::size_t n = b.extent(0);
    tensor c({m, n});
    const float* pa = a.raw();
    const float* pb = b.raw();
    float* pc = c.raw();
    for (std::size_t i = 0; i < m; ++i) {
        const float* arow = pa + i * k;
        for (std::size_t j = 0; j < n; ++j) {
            const float* brow = pb + j * k;
            float acc = 0.0f;
            for (std::size_t p = 0; p < k; ++p) { acc += arow[p] * brow[p]; }
            pc[i * n + j] = acc;
        }
    }
    return c;
}

tensor seed_matmul_tn(const tensor& a, const tensor& b) {
    const std::size_t k = a.extent(0);
    const std::size_t m = a.extent(1);
    const std::size_t n = b.extent(1);
    tensor c({m, n});
    const float* pa = a.raw();
    const float* pb = b.raw();
    float* pc = c.raw();
    for (std::size_t p = 0; p < k; ++p) {
        const float* arow = pa + p * m;
        const float* brow = pb + p * n;
        for (std::size_t i = 0; i < m; ++i) {
            const float aip = arow[i];
            if (aip == 0.0f) { continue; }
            float* crow = pc + i * n;
            for (std::size_t j = 0; j < n; ++j) { crow[j] += aip * brow[j]; }
        }
    }
    return c;
}

// ---- double-precision reference for the correctness gate -------------------

std::vector<double> reference(const std::string& op, const tensor& a, const tensor& b,
                              std::size_t m, std::size_t k, std::size_t n) {
    std::vector<double> c(m * n, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::size_t p = 0; p < k; ++p) {
                double av = 0.0;
                double bv = 0.0;
                if (op == "nn") {
                    av = a.raw()[i * k + p];
                    bv = b.raw()[p * n + j];
                } else if (op == "nt") {
                    av = a.raw()[i * k + p];
                    bv = b.raw()[j * k + p];
                } else {  // tn
                    av = a.raw()[p * m + i];
                    bv = b.raw()[p * n + j];
                }
                acc += av * bv;
            }
            c[i * n + j] = acc;
        }
    }
    return c;
}

bool verify(const tensor& got, const std::vector<double>& want, std::size_t k,
            const std::string& label) {
    double scale = 1.0;
    for (const double v : want) { scale = std::max(scale, std::abs(v)); }
    // Order-of-summation rounding grows ~ k·eps·scale; a 1e-4 relative band
    // is orders of magnitude above that and orders below any real bug.
    const double tol = std::max(1e-5, 1e-4 * scale) + 1e-6 * static_cast<double>(k);
    for (std::size_t i = 0; i < want.size(); ++i) {
        if (std::abs(static_cast<double>(got.raw()[i]) - want[i]) > tol) {
            std::cerr << "MISMATCH " << label << " at flat index " << i << ": got "
                      << got.raw()[i] << ", want " << want[i] << " (tol " << tol << ")\n";
            return false;
        }
    }
    return true;
}

// ---- timing -----------------------------------------------------------------

template <typename Fn>
double best_ms_per_call(Fn&& fn, double min_ms, std::size_t samples) {
    fn();  // warm caches and the workspace arena
    std::size_t reps = 1;
    for (;;) {
        stopwatch t;
        for (std::size_t r = 0; r < reps; ++r) { fn(); }
        const double ms = t.milliseconds();
        if (ms >= min_ms || reps > (1u << 20)) { break; }
        const double grow = ms > 0.0 ? std::min(10.0, 1.25 * min_ms / ms) : 10.0;
        reps = std::max(reps + 1, static_cast<std::size_t>(static_cast<double>(reps) * grow));
    }
    double best = 1e300;
    for (std::size_t s = 0; s < samples; ++s) {
        stopwatch t;
        for (std::size_t r = 0; r < reps; ++r) { fn(); }
        best = std::min(best, t.milliseconds() / static_cast<double>(reps));
    }
    return best;
}

// ---- whole conv layers -------------------------------------------------------

/// The bench's reference lowering of a conv forward: each image's patch
/// matrix materialized by im2col and multiplied by one GEMM. GEMM columns
/// are independent, so this is bit-identical to any batching of them.
tensor reference_conv_forward(const tensor& input, const tensor& weight, const tensor& bias,
                              const conv2d_spec& spec) {
    const std::size_t batch = input.extent(0);
    const std::size_t in_h = input.extent(2);
    const std::size_t in_w = input.extent(3);
    const std::size_t plane = spec.out_h(in_h) * spec.out_w(in_w);
    const std::size_t image_elems = spec.in_channels * in_h * in_w;
    const tensor weight2d = weight.reshaped({spec.out_channels, spec.patch_size()});
    tensor out({batch, spec.out_channels, spec.out_h(in_h), spec.out_w(in_w)});
    for (std::size_t n = 0; n < batch; ++n) {
        const tensor image({spec.in_channels, in_h, in_w},
                           std::vector<float>(input.raw() + n * image_elems,
                                              input.raw() + (n + 1) * image_elems));
        const tensor prod = matmul(weight2d, im2col(image, spec));
        for (std::size_t oc = 0; oc < spec.out_channels; ++oc) {
            for (std::size_t i = 0; i < plane; ++i) {
                out.raw()[(n * spec.out_channels + oc) * plane + i] =
                    prod.raw()[oc * plane + i] + bias[oc];
            }
        }
    }
    return out;
}

/// The reference backward onto zero gradients, the whole batch as one
/// chunk (the split conv2d_backward_acc uses at the default lowering
/// budget for every layer here): dW = dY · Lᵀ and dX = col2im(Wᵀ · dY) over
/// the materialized patch matrix L [patch, N*oh*ow], db one serial sum
/// per channel.
conv2d_grads reference_conv_backward(const tensor& input, const tensor& weight,
                                     const tensor& grad_output, const conv2d_spec& spec) {
    const std::size_t batch = input.extent(0);
    const std::size_t in_h = input.extent(2);
    const std::size_t in_w = input.extent(3);
    const std::size_t plane = spec.out_h(in_h) * spec.out_w(in_w);
    const std::size_t patch = spec.patch_size();
    const std::size_t out_c = spec.out_channels;
    const std::size_t cols = batch * plane;
    const std::size_t image_elems = spec.in_channels * in_h * in_w;
    tensor lowered({patch, cols});
    tensor dy({out_c, cols});
    for (std::size_t n = 0; n < batch; ++n) {
        const tensor image({spec.in_channels, in_h, in_w},
                           std::vector<float>(input.raw() + n * image_elems,
                                              input.raw() + (n + 1) * image_elems));
        const tensor columns = im2col(image, spec);
        for (std::size_t r = 0; r < patch; ++r) {
            std::memcpy(lowered.raw() + r * cols + n * plane, columns.raw() + r * plane,
                        plane * sizeof(float));
        }
        for (std::size_t oc = 0; oc < out_c; ++oc) {
            std::memcpy(dy.raw() + oc * cols + n * plane,
                        grad_output.raw() + (n * out_c + oc) * plane, plane * sizeof(float));
        }
    }
    conv2d_grads grads{tensor(input.shape()), matmul_nt(dy, lowered).reshaped(weight.shape()),
                       tensor({out_c})};
    for (std::size_t oc = 0; oc < out_c; ++oc) {
        float acc = 0.0f;
        for (std::size_t i = 0; i < cols; ++i) { acc += dy.raw()[oc * cols + i]; }
        grads.grad_bias[oc] = acc;
    }
    const tensor grad_cols = matmul_tn(weight.reshaped({out_c, patch}), dy);
    for (std::size_t n = 0; n < batch; ++n) {
        tensor columns({patch, plane});
        for (std::size_t r = 0; r < patch; ++r) {
            std::memcpy(columns.raw() + r * plane, grad_cols.raw() + r * cols + n * plane,
                        plane * sizeof(float));
        }
        const tensor image = col2im(columns, spec, in_h, in_w);
        std::memcpy(grads.grad_input.raw() + n * image_elems, image.raw(),
                    image_elems * sizeof(float));
    }
    return grads;
}

bool same_bits(const tensor& got, const tensor& want, const std::string& label) {
    if (got.shape() == want.shape() &&
        std::memcmp(got.raw(), want.raw(), got.numel() * sizeof(float)) == 0) {
        return true;
    }
    std::cerr << "MISMATCH " << label << ": not bit-identical to the reference lowering\n";
    return false;
}

/// The general max-pool scan with argmax, as every pooling forward ran it
/// before the 2x2 form: each window row by row, strict `>` from -inf.
pool2d_result reference_max_pool(const tensor& input, const pool2d_spec& spec) {
    const std::size_t planes = input.extent(0) * input.extent(1);
    const std::size_t in_h = input.extent(2);
    const std::size_t in_w = input.extent(3);
    const std::size_t oh = (in_h - spec.kernel) / spec.stride + 1;
    const std::size_t ow = (in_w - spec.kernel) / spec.stride + 1;
    pool2d_result r{tensor({input.extent(0), input.extent(1), oh, ow}), {}};
    r.argmax.resize(r.output.numel());
    const float* src = input.raw();
    std::size_t out_idx = 0;
    for (std::size_t p = 0; p < planes; ++p) {
        const std::size_t base = p * in_h * in_w;
        for (std::size_t oy = 0; oy < oh; ++oy) {
            for (std::size_t ox = 0; ox < ow; ++ox, ++out_idx) {
                std::size_t best_idx = base + oy * spec.stride * in_w + ox * spec.stride;
                float best = -std::numeric_limits<float>::infinity();
                for (std::size_t ky = 0; ky < spec.kernel; ++ky) {
                    for (std::size_t kx = 0; kx < spec.kernel; ++kx) {
                        const std::size_t flat =
                            base + (oy * spec.stride + ky) * in_w + ox * spec.stride + kx;
                        if (src[flat] > best) {
                            best = src[flat];
                            best_idx = flat;
                        }
                    }
                }
                r.output.raw()[out_idx] = best;
                r.argmax[out_idx] = best_idx;
            }
        }
    }
    return r;
}

struct conv_case {
    std::size_t in_c, out_c, hw;
};

struct gemm_case {
    std::string op;  // nn | nt | tn
    std::size_t m, k, n;
    const char* note;
};

}  // namespace

int main(int argc, char** argv) {
    try {
        const cli_args args(argc, argv);
        const std::string out_path = args.get("out", "BENCH_gemm.json");
        const double min_ms = args.get_double("min-ms", 100.0);
        const std::size_t samples = static_cast<std::size_t>(args.get_int("samples", 3));
        args.reject_unread_options();

        const std::vector<gemm_case> cases = {
            {"nn", 64, 64, 64, "small square"},
            {"nn", 256, 256, 256, "acceptance shape"},
            {"nn", 32, 288, 1024, "conv-lowered layer (O x patch x N*oh*ow)"},
            {"nt", 256, 256, 256, "linear forward"},
            {"nt", 256, 512, 10, "classifier head"},
            {"tn", 256, 256, 256, "weight gradient"},
            {"tn", 32, 288, 1024, "conv dX (patch x cols)"},
            // The standard MLP's training step at batch 64 (m x k x n).
            {"nt", 64, 32, 64, "MLP L0 forward"},
            {"nt", 64, 64, 64, "MLP hidden forward"},
            {"tn", 64, 64, 32, "MLP L0 weight gradient"},
            {"nn", 64, 64, 32, "MLP hidden dX"},
            {"nt", 256, 64, 10, "MLP eval head"},
        };

        bool all_ok = true;
        double speedup_256 = 0.0;
        json_array case_json;
        rng gen(20230731);

        for (const gemm_case& c : cases) {
            // Operand layouts per op: nn a[m,k] b[k,n]; nt a[m,k] b[n,k];
            // tn a[k,m] b[k,n].
            tensor a(c.op == "tn" ? shape_t{c.k, c.m} : shape_t{c.m, c.k});
            tensor b(c.op == "nt" ? shape_t{c.n, c.k} : shape_t{c.k, c.n});
            uniform_init(a, -1.0f, 1.0f, gen);
            uniform_init(b, -1.0f, 1.0f, gen);

            const auto run_seed = [&]() {
                if (c.op == "nn") { return seed_matmul(a, b); }
                if (c.op == "nt") { return seed_matmul_nt(a, b); }
                return seed_matmul_tn(a, b);
            };
            const auto run_blocked = [&]() {
                if (c.op == "nn") { return matmul(a, b); }
                if (c.op == "nt") { return matmul_nt(a, b); }
                return matmul_tn(a, b);
            };

            const std::vector<double> ref = reference(c.op, a, b, c.m, c.k, c.n);
            const std::string label =
                c.op + " " + std::to_string(c.m) + "x" + std::to_string(c.k) + "x" +
                std::to_string(c.n);
            const bool seed_ok = verify(run_seed(), ref, c.k, "seed " + label);
            const bool blocked_ok = verify(run_blocked(), ref, c.k, "blocked " + label);
            all_ok = all_ok && seed_ok && blocked_ok;

            const double seed_ms = best_ms_per_call([&]() { (void)run_seed(); }, min_ms, samples);
            const double blocked_ms =
                best_ms_per_call([&]() { (void)run_blocked(); }, min_ms, samples);
            const double speedup = seed_ms / blocked_ms;
            const double gflops = 2.0 * static_cast<double>(c.m) * static_cast<double>(c.k) *
                                  static_cast<double>(c.n) / (blocked_ms * 1e6);
            if (c.op == "nn" && c.m == 256 && c.k == 256 && c.n == 256) {
                speedup_256 = speedup;
            }

            std::cout << label << "  seed " << seed_ms << " ms, blocked " << blocked_ms
                      << " ms  → " << speedup << "x  (" << gflops << " GFLOP/s, " << c.note
                      << (seed_ok && blocked_ok ? ")" : ")  *** MISMATCH ***") << '\n';

            json_object entry;
            entry.set("op", json_value(c.op));
            entry.set("m", json_value(c.m));
            entry.set("k", json_value(c.k));
            entry.set("n", json_value(c.n));
            entry.set("note", json_value(std::string(c.note)));
            entry.set("seed_ms", json_value(seed_ms));
            entry.set("blocked_ms", json_value(blocked_ms));
            entry.set("speedup", json_value(speedup));
            entry.set("blocked_gflops", json_value(gflops));
            entry.set("verified", json_value(seed_ok && blocked_ok));
            case_json.push_back(json_value(std::move(entry)));
        }

        // Every distinct conv geometry of VGG11 x0.125 on 8x8x3 images
        // (3x3 kernels, padding 1), as the CNN workload trains and
        // evaluates it.
        const std::vector<conv_case> conv_cases = {
            {3, 8, 8}, {8, 16, 4}, {16, 32, 2}, {32, 32, 2}, {32, 64, 1}, {64, 64, 1},
        };
        json_array conv_json;
        for (const conv_case& cc : conv_cases) {
            for (const std::size_t batch : {std::size_t{32}, std::size_t{200}}) {
                const conv2d_spec spec{cc.in_c, cc.out_c, 3, 3, 1, 1};
                tensor input({batch, cc.in_c, cc.hw, cc.hw});
                tensor weight({cc.out_c, cc.in_c, 3, 3});
                tensor bias({cc.out_c});
                tensor dy({batch, cc.out_c, cc.hw, cc.hw});
                uniform_init(input, -1.0f, 1.0f, gen);
                uniform_init(weight, -1.0f, 1.0f, gen);
                uniform_init(bias, -1.0f, 1.0f, gen);
                uniform_init(dy, -1.0f, 1.0f, gen);

                const std::string label = std::to_string(cc.in_c) + "->" +
                                          std::to_string(cc.out_c) + " @" +
                                          std::to_string(cc.hw) + "x" +
                                          std::to_string(cc.hw) + " batch " +
                                          std::to_string(batch);
                const bool fwd_ok = same_bits(conv2d_forward(input, weight, bias, spec),
                                              reference_conv_forward(input, weight, bias, spec),
                                              "conv forward " + label);
                const conv2d_grads want = reference_conv_backward(input, weight, dy, spec);
                conv2d_grads got{tensor(input.shape()), tensor(weight.shape()),
                                 tensor({cc.out_c})};
                conv2d_backward_acc(input, weight, dy, spec, got.grad_input, got.grad_weight,
                                    got.grad_bias);
                const bool bwd_ok =
                    same_bits(got.grad_input, want.grad_input, "conv dX " + label) &&
                    same_bits(got.grad_weight, want.grad_weight, "conv dW " + label) &&
                    same_bits(got.grad_bias, want.grad_bias, "conv db " + label);
                all_ok = all_ok && fwd_ok && bwd_ok;

                const double fwd_ms = best_ms_per_call(
                    [&]() { (void)conv2d_forward(input, weight, bias, spec); }, min_ms, samples);
                const double bwd_ms = best_ms_per_call(
                    [&]() {
                        conv2d_backward_acc(input, weight, dy, spec, got.grad_input,
                                            got.grad_weight, got.grad_bias);
                    },
                    min_ms, samples);
                // Useful work only: the all-padding patch rows of the 1x1
                // layers are skipped, so they are not counted. Backward
                // runs two GEMMs (dW and dX) of the forward's size.
                const std::size_t live = conv_active_patch_rows(spec, cc.hw, cc.hw).size();
                const double fwd_flops = 2.0 * static_cast<double>(cc.out_c * live * batch *
                                                                   cc.hw * cc.hw);
                for (const bool forward : {true, false}) {
                    const double ms = forward ? fwd_ms : bwd_ms;
                    const double gflops = (forward ? 1.0 : 2.0) * fwd_flops / (ms * 1e6);
                    const bool ok = forward ? fwd_ok : bwd_ok;
                    std::cout << "conv " << (forward ? "forward  " : "backward ") << label
                              << "  " << ms << " ms  (" << gflops << " GFLOP/s"
                              << (ok ? ")" : ")  *** MISMATCH ***") << '\n';
                    json_object entry;
                    entry.set("pass", json_value(forward ? "forward" : "backward"));
                    entry.set("in_c", json_value(cc.in_c));
                    entry.set("out_c", json_value(cc.out_c));
                    entry.set("hw", json_value(cc.hw));
                    entry.set("batch", json_value(batch));
                    entry.set("live_patch_rows", json_value(live));
                    entry.set("ms", json_value(ms));
                    entry.set("gflops", json_value(gflops));
                    entry.set("verified", json_value(ok));
                    conv_json.push_back(json_value(std::move(entry)));
                }
            }
        }

        // The first VGG conv (3->8 @8x8) at the training batch: the full
        // backward a model's first layer used to run, and the parameter-only
        // backward the training step runs now (no dX GEMM, no scatter).
        json_array param_json;
        {
            const conv_case cc{3, 8, 8};
            const std::size_t batch = 32;
            const conv2d_spec spec{cc.in_c, cc.out_c, 3, 3, 1, 1};
            tensor input({batch, cc.in_c, cc.hw, cc.hw});
            tensor dy({batch, cc.out_c, cc.hw, cc.hw});
            tensor weight({cc.out_c, cc.in_c, 3, 3});
            uniform_init(input, -1.0f, 1.0f, gen);
            uniform_init(dy, -1.0f, 1.0f, gen);
            uniform_init(weight, -1.0f, 1.0f, gen);
            conv2d_grads full{tensor(input.shape()), tensor(weight.shape()), tensor({cc.out_c})};
            conv2d_backward_acc(input, weight, dy, spec, full.grad_input, full.grad_weight,
                                full.grad_bias);
            tensor gw(weight.shape());
            tensor gb({cc.out_c});
            conv2d_param_grads_acc(input, dy, spec, gw, gb);
            const std::string label = "3->8 @8x8 batch 32";
            const bool ok = same_bits(gw, full.grad_weight, "conv dW without dX " + label) &&
                            same_bits(gb, full.grad_bias, "conv db without dX " + label);
            all_ok = all_ok && ok;
            const double full_ms = best_ms_per_call(
                [&]() {
                    tensor gin(input.shape());
                    conv2d_backward_acc(input, weight, dy, spec, gin, full.grad_weight,
                                        full.grad_bias);
                },
                min_ms, samples);
            const double params_ms = best_ms_per_call(
                [&]() { conv2d_param_grads_acc(input, dy, spec, gw, gb); }, min_ms, samples);
            std::cout << "conv backward " << label << "  with dX " << full_ms
                      << " ms, without dX " << params_ms << " ms  → " << full_ms / params_ms
                      << "x" << (ok ? "" : "  *** MISMATCH ***") << '\n';
            json_object entry;
            entry.set("in_c", json_value(cc.in_c));
            entry.set("out_c", json_value(cc.out_c));
            entry.set("hw", json_value(cc.hw));
            entry.set("batch", json_value(batch));
            entry.set("with_dx_ms", json_value(full_ms));
            entry.set("without_dx_ms", json_value(params_ms));
            entry.set("speedup", json_value(full_ms / params_ms));
            entry.set("verified", json_value(ok));
            param_json.push_back(json_value(std::move(entry)));
        }

        // The largest VGG pool ([N, 8, 8, 8] -> 4x4): an eval at batch 200
        // records no argmax, a training step at batch 32 does. Both are
        // timed against the general scan with argmax.
        json_array pool_json;
        for (const bool with_argmax : {false, true}) {
            const std::size_t batch = with_argmax ? 32 : 200;
            const pool2d_spec spec{2, 2};
            tensor input({batch, 8, 8, 8});
            uniform_init(input, -1.0f, 1.0f, gen);
            const pool2d_result want = reference_max_pool(input, spec);
            const std::string label = "[" + std::to_string(batch) + ",8,8,8] " +
                                      (with_argmax ? "with argmax" : "without argmax");
            bool ok = false;
            if (with_argmax) {
                const pool2d_result got = max_pool2d_forward(input, spec);
                ok = same_bits(got.output, want.output, "max pool " + label);
                if (ok && got.argmax != want.argmax) {
                    std::cerr << "MISMATCH max pool " << label << ": argmax differs\n";
                    ok = false;
                }
            } else {
                ok = same_bits(max_pool2d_values(input, spec), want.output, "max pool " + label);
            }
            all_ok = all_ok && ok;
            const double ref_ms = best_ms_per_call(
                [&]() { (void)reference_max_pool(input, spec); }, min_ms, samples);
            const double ms = best_ms_per_call(
                [&]() {
                    if (with_argmax) {
                        (void)max_pool2d_forward(input, spec);
                    } else {
                        (void)max_pool2d_values(input, spec);
                    }
                },
                min_ms, samples);
            std::cout << "max pool " << label << "  general scan " << ref_ms << " ms, 2x2 "
                      << ms << " ms  → " << ref_ms / ms << "x"
                      << (ok ? "" : "  *** MISMATCH ***") << '\n';
            json_object entry;
            entry.set("batch", json_value(batch));
            entry.set("channels", json_value(std::size_t{8}));
            entry.set("hw", json_value(std::size_t{8}));
            entry.set("argmax", json_value(with_argmax));
            entry.set("general_scan_ms", json_value(ref_ms));
            entry.set("ms", json_value(ms));
            entry.set("speedup", json_value(ref_ms / ms));
            entry.set("verified", json_value(ok));
            pool_json.push_back(json_value(std::move(entry)));
        }

        json_object root;
        root.set("bench", json_value("micro_gemm"));
        root.set("schema_version", json_value(3));
#ifdef REDUCE_NATIVE
        root.set("march_native", json_value(true));
#else
        root.set("march_native", json_value(false));
#endif
        root.set("hardware_concurrency",
                 json_value(static_cast<std::size_t>(std::thread::hardware_concurrency())));
        root.set("min_ms_per_sample", json_value(min_ms));
        root.set("samples", json_value(samples));
        root.set("gemm_256_speedup", json_value(speedup_256));
        root.set("cases", json_value(std::move(case_json)));
        root.set("conv_layers", json_value(std::move(conv_json)));
        root.set("conv_first_layer_backward", json_value(std::move(param_json)));
        root.set("max_pool", json_value(std::move(pool_json)));
        json_save_file(out_path, json_value(std::move(root)));
        std::cout << "wrote " << out_path << " (256^3 speedup " << speedup_256 << "x)\n";

        if (!all_ok) {
            std::cerr << "error: kernel output mismatch against reference\n";
            return 1;
        }
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
