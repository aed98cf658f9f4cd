// Tests for the blocked GEMM backend and the workspace arena: kernels vs a
// double-precision naive reference across tile-boundary shapes and bit for
// bit vs a float loop in the documented panel order, NaN/Inf
// propagation (the seed kernel's zero-skip branch dropped it), workspace
// reuse safety, whole-batch conv lowering equivalence (including the
// chunked path), the gathered-B GEMM and the k-subset behind the conv
// padding-row skips, and the implicit conv lowering checked bit for bit
// against a test-local materialized lowering over a grid of geometries.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "tensor/conv.h"
#include "tensor/gemm.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "tensor/workspace.h"
#include "util/rng.h"

namespace reduce {
namespace {

tensor random_tensor(shape_t shape, rng& gen) {
    tensor t(std::move(shape));
    uniform_init(t, -1.0f, 1.0f, gen);
    return t;
}

// Double-precision references; `op` picks the operand layouts used by
// matmul (nn), matmul_nt (nt), and matmul_tn (tn).
tensor reference_gemm(const std::string& op, const tensor& a, const tensor& b, std::size_t m,
                      std::size_t k, std::size_t n) {
    tensor c({m, n});
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::size_t p = 0; p < k; ++p) {
                const double av = op == "tn" ? a.raw()[p * m + i] : a.raw()[i * k + p];
                const double bv = op == "nt" ? b.raw()[j * k + p] : b.raw()[p * n + j];
                acc += av * bv;
            }
            c.raw()[i * n + j] = static_cast<float>(acc);
        }
    }
    return c;
}

// Shapes straddling every tile boundary: micro-tile (4x16), cache blocks
// (MC=64, NC=64, KC=256), and degenerate 1-extent cases.
const std::vector<std::array<std::size_t, 3>> kShapes = {
    {1, 1, 1},   {1, 7, 1},    {7, 13, 5},   {4, 16, 16},  {5, 17, 15},
    {64, 64, 64}, {65, 64, 63}, {63, 65, 64}, {127, 255, 65}, {3, 300, 2},
    {68, 257, 70},
};

float tol_for(std::size_t k) {
    // Order-of-summation rounding ~ k * eps * |partials|; generous band.
    return 1e-5f + 1e-6f * static_cast<float>(k);
}

TEST(BlockedGemm, MatmulMatchesReferenceAcrossTileEdges) {
    rng gen(11);
    for (const auto& [m, k, n] : kShapes) {
        const tensor a = random_tensor({m, k}, gen);
        const tensor b = random_tensor({k, n}, gen);
        EXPECT_TRUE(matmul(a, b).allclose(reference_gemm("nn", a, b, m, k, n), tol_for(k)))
            << m << "x" << k << "x" << n;
    }
}

TEST(BlockedGemm, MatmulNtMatchesReferenceAcrossTileEdges) {
    rng gen(13);
    for (const auto& [m, k, n] : kShapes) {
        const tensor a = random_tensor({m, k}, gen);
        const tensor b = random_tensor({n, k}, gen);
        EXPECT_TRUE(matmul_nt(a, b).allclose(reference_gemm("nt", a, b, m, k, n), tol_for(k)))
            << m << "x" << k << "x" << n;
    }
}

TEST(BlockedGemm, MatmulTnMatchesReferenceAcrossTileEdges) {
    rng gen(17);
    for (const auto& [m, k, n] : kShapes) {
        const tensor a = random_tensor({k, m}, gen);
        const tensor b = random_tensor({k, n}, gen);
        EXPECT_TRUE(matmul_tn(a, b).allclose(reference_gemm("tn", a, b, m, k, n), tol_for(k)))
            << m << "x" << k << "x" << n;
    }
}

// Whether the dispatched micro-kernel fuses multiply and add (FMA) — found
// by a product whose separate rounding is visible: with the first term
// -(1 + 2^-11) and the second (1 + 2^-12)^2 = 1 + 2^-11 + 2^-24, a fused
// accumulate leaves 2^-24 and an unfused one rounds the product (a tie, to
// even) and leaves 0.
bool kernel_fuses_multiply_add() {
    const float a[2] = {1.0f, 1.0f + 0x1p-12f};
    const float b[2] = {-(1.0f + 0x1p-11f), 1.0f + 0x1p-12f};
    float c = 0.0f;
    workspace ws;
    gemm_nn(1, 1, 2, a, 2, b, 1, &c, 1, false, ws);
    return c != 0.0f;
}

// The documented order, in float: KC = 256 panels ascending, p ascending
// within a panel, each panel summed from +0 and then stored into C (the
// first panel of an overwrite) or added onto it.
void panel_ordered_gemm(const std::string& op, const float* a, const float* b, std::size_t m,
                        std::size_t k, std::size_t n, float* c, std::size_t ldc,
                        bool accumulate, bool fused) {
    constexpr std::size_t kc = 256;
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            float& out = c[i * ldc + j];
            for (std::size_t pc = 0; pc < k; pc += kc) {
                float sum = 0.0f;
                for (std::size_t p = pc; p < std::min(k, pc + kc); ++p) {
                    const float av = op == "tn" ? a[p * m + i] : a[i * k + p];
                    const float bv = op == "nt" ? b[j * k + p] : b[p * n + j];
                    sum = fused ? std::fma(av, bv, sum) : sum + av * bv;
                }
                out = !accumulate && pc == 0 ? sum : out + sum;
            }
        }
    }
}

TEST(BlockedGemm, BitwiseMatchesPanelOrderedReference) {
    // Pins byte identity at full and edge tiles, for both store modes, on a
    // C with a 3-column margin (ldc = n + 3) that no call may touch. The
    // prior C holds -0, +-Inf and NaN, which an overwrite must replace and
    // an accumulate must carry.
    const bool fused = kernel_fuses_multiply_add();
    const float specials[] = {-0.0f, std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              std::numeric_limits<float>::quiet_NaN(), 0.5f};
    rng gen(29);
    workspace ws;
    for (const auto& [m, k, n] : kShapes) {
        const tensor a = random_tensor({m, k}, gen);  // [k, m] for tn: same count
        const tensor b = random_tensor({k, n}, gen);  // [n, k] for nt: same count
        const std::size_t ldc = n + 3;
        for (const std::string op : {"nn", "nt", "tn"}) {
            for (const bool accumulate : {false, true}) {
                std::vector<float> got(m * ldc);
                for (std::size_t e = 0; e < got.size(); ++e) { got[e] = specials[e % 5]; }
                std::vector<float> want = got;
                const std::size_t lda = op == "tn" ? m : k;
                const std::size_t ldb = op == "nt" ? k : n;
                if (op == "nn") {
                    gemm_nn(m, n, k, a.raw(), lda, b.raw(), ldb, got.data(), ldc, accumulate, ws);
                } else if (op == "nt") {
                    gemm_nt(m, n, k, a.raw(), lda, b.raw(), ldb, got.data(), ldc, accumulate, ws);
                } else {
                    gemm_tn(m, n, k, a.raw(), lda, b.raw(), ldb, got.data(), ldc, accumulate, ws);
                }
                panel_ordered_gemm(op, a.raw(), b.raw(), m, k, n, want.data(), ldc, accumulate,
                                   fused);
                EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0)
                    << op << " " << m << "x" << k << "x" << n << " accumulate=" << accumulate;
            }
        }
    }
}

TEST(BlockedGemm, MatmulTnAccAccumulatesInPlace) {
    rng gen(19);
    const tensor a = random_tensor({6, 5}, gen);  // [k, m]
    const tensor b = random_tensor({6, 9}, gen);  // [k, n]
    tensor c = random_tensor({5, 9}, gen);
    tensor expected = add(c, matmul_tn(a, b));
    matmul_tn_acc(a, b, c);
    EXPECT_TRUE(c.allclose(expected, 1e-6f));
}

TEST(BlockedGemm, PropagatesNanFromBThroughZeroInA) {
    // Seed kernel skipped a == 0 rows, silently converting NaN/Inf in B to
    // 0 in C. 0 * NaN must stay NaN.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    tensor a({1, 2});
    a[0] = 0.0f;
    a[1] = 0.0f;
    tensor b({2, 1});
    b[0] = nan;
    b[1] = 1.0f;
    EXPECT_TRUE(std::isnan(matmul(a, b)[0]));

    tensor at({2, 1});  // [k, m] for the tn variant
    at[0] = 0.0f;
    at[1] = 0.0f;
    tensor bt({2, 1});
    bt[0] = nan;
    bt[1] = 2.0f;
    EXPECT_TRUE(std::isnan(matmul_tn(at, bt)[0]));
}

TEST(BlockedGemm, PropagatesInfinity) {
    const float inf = std::numeric_limits<float>::infinity();
    tensor a({1, 1});
    a[0] = 0.0f;
    tensor b({1, 1});
    b[0] = inf;
    EXPECT_TRUE(std::isnan(matmul(a, b)[0]));  // 0 * inf = NaN per IEEE
}

TEST(BlockedGemm, DeterministicAcrossRepeatedCalls) {
    rng gen(23);
    const tensor a = random_tensor({37, 129}, gen);
    const tensor b = random_tensor({129, 41}, gen);
    const tensor first = matmul(a, b);
    for (int i = 0; i < 3; ++i) { EXPECT_TRUE(matmul(a, b) == first); }
}

// ---- workspace arena --------------------------------------------------------

TEST(Workspace, ReusesSlabsAfterRelease) {
    workspace ws;
    const float* first = nullptr;
    {
        workspace::buffer b = ws.acquire(1024);
        first = b.data();
        EXPECT_EQ(ws.outstanding(), 1u);
    }
    EXPECT_EQ(ws.outstanding(), 0u);
    workspace::buffer again = ws.acquire(1000);  // fits in the pooled slab
    EXPECT_EQ(again.data(), first);
}

TEST(Workspace, BestFitPrefersSmallestSlab) {
    workspace ws;
    const float* small = nullptr;
    const float* big = nullptr;
    {
        workspace::buffer a = ws.acquire(64);
        workspace::buffer b = ws.acquire(4096);
        small = a.data();
        big = b.data();
    }
    workspace::buffer c = ws.acquire(60);
    EXPECT_EQ(c.data(), small);
    workspace::buffer d = ws.acquire(3000);
    EXPECT_EQ(d.data(), big);
}

TEST(Workspace, NestedLeasesDoNotAlias) {
    workspace ws;
    workspace::buffer a = ws.acquire(128);
    workspace::buffer b = ws.acquire(128);
    EXPECT_NE(a.data(), b.data());
    EXPECT_EQ(ws.outstanding(), 2u);
}

TEST(Workspace, LocalArenaIsPerThread) {
    workspace* main_arena = &workspace::local();
    workspace* worker_arena = nullptr;
    std::thread t([&]() { worker_arena = &workspace::local(); });
    t.join();
    EXPECT_NE(main_arena, worker_arena);
}

// ---- whole-batch conv lowering ----------------------------------------------

/// RAII guard for the lowering budget so a failing test cannot leak a tiny
/// budget into later tests.
class budget_guard {
public:
    explicit budget_guard(std::size_t bytes)
        : previous_(set_conv_lowering_budget_bytes(bytes)) {}
    ~budget_guard() { set_conv_lowering_budget_bytes(previous_); }

private:
    std::size_t previous_;
};

/// The seed algorithm: per-image im2col + GEMM, kept as the equivalence
/// reference for the whole-batch path.
tensor per_image_conv_forward(const tensor& input, const tensor& weight, const tensor& bias,
                              const conv2d_spec& spec) {
    const std::size_t batch = input.extent(0);
    const std::size_t in_h = input.extent(2);
    const std::size_t in_w = input.extent(3);
    const std::size_t oh = spec.out_h(in_h);
    const std::size_t ow = spec.out_w(in_w);
    const tensor weight2d = weight.reshaped({spec.out_channels, spec.patch_size()});
    tensor output({batch, spec.out_channels, oh, ow});
    const std::size_t image_elems = spec.in_channels * in_h * in_w;
    const std::size_t plane = oh * ow;
    for (std::size_t n = 0; n < batch; ++n) {
        tensor image({spec.in_channels, in_h, in_w},
                     std::vector<float>(input.raw() + n * image_elems,
                                        input.raw() + (n + 1) * image_elems));
        const tensor result = matmul(weight2d, im2col(image, spec));
        for (std::size_t oc = 0; oc < spec.out_channels; ++oc) {
            const float b = bias.empty() ? 0.0f : bias[oc];
            for (std::size_t i = 0; i < plane; ++i) {
                output.raw()[(n * spec.out_channels + oc) * plane + i] =
                    result.raw()[oc * plane + i] + b;
            }
        }
    }
    return output;
}

TEST(BatchConv, ForwardEqualsPerImagePath) {
    rng gen(29);
    const conv2d_spec spec{3, 5, 3, 3, 1, 1};
    const tensor input = random_tensor({4, 3, 6, 7}, gen);
    const tensor weight = random_tensor({5, 3, 3, 3}, gen);
    const tensor bias = random_tensor({5}, gen);
    const tensor batch_out = conv2d_forward(input, weight, bias, spec);
    const tensor ref = per_image_conv_forward(input, weight, bias, spec);
    EXPECT_TRUE(batch_out.allclose(ref, 1e-5f));
}

TEST(BatchConv, ForwardStridedNoPadding) {
    rng gen(31);
    const conv2d_spec spec{2, 4, 3, 2, 2, 0};
    const tensor input = random_tensor({3, 2, 9, 8}, gen);
    const tensor weight = random_tensor({4, 2, 3, 2}, gen);
    const tensor batch_out = conv2d_forward(input, weight, tensor(), spec);
    const tensor ref = per_image_conv_forward(input, weight, tensor(), spec);
    EXPECT_TRUE(batch_out.allclose(ref, 1e-5f));
}

TEST(BatchConv, ChunkedPathMatchesWholeBatch) {
    rng gen(37);
    const conv2d_spec spec{3, 6, 3, 3, 1, 1};
    const tensor input = random_tensor({5, 3, 8, 8}, gen);
    const tensor weight = random_tensor({6, 3, 3, 3}, gen);
    const tensor bias = random_tensor({6}, gen);
    const tensor grad_out = random_tensor({5, 6, 8, 8}, gen);

    const tensor whole_fwd = conv2d_forward(input, weight, bias, spec);
    const conv2d_grads whole_bwd = conv2d_backward(input, weight, grad_out, spec);

    // A 1-byte-per-image budget forces chunk = 1 image.
    budget_guard guard(1);
    const tensor chunked_fwd = conv2d_forward(input, weight, bias, spec);
    const conv2d_grads chunked_bwd = conv2d_backward(input, weight, grad_out, spec);

    // Forward columns are independent, so chunking cannot change them.
    EXPECT_TRUE(chunked_fwd == whole_fwd);
    // dW/db sum over the batch in chunk order — same values up to rounding.
    EXPECT_TRUE(chunked_bwd.grad_weight.allclose(whole_bwd.grad_weight, 1e-4f));
    EXPECT_TRUE(chunked_bwd.grad_bias.allclose(whole_bwd.grad_bias, 1e-4f));
    EXPECT_TRUE(chunked_bwd.grad_input.allclose(whole_bwd.grad_input, 1e-5f));
}

TEST(BatchConv, BackwardAccAccumulates) {
    rng gen(41);
    const conv2d_spec spec{2, 3, 3, 3, 1, 1};
    const tensor input = random_tensor({2, 2, 5, 5}, gen);
    const tensor weight = random_tensor({3, 2, 3, 3}, gen);
    const tensor grad_out = random_tensor({2, 3, 5, 5}, gen);

    const conv2d_grads fresh = conv2d_backward(input, weight, grad_out, spec);
    tensor gi(input.shape());
    tensor gw(weight.shape());
    tensor gb({3});
    conv2d_backward_acc(input, weight, grad_out, spec, gi, gw, gb);
    conv2d_backward_acc(input, weight, grad_out, spec, gi, gw, gb);
    EXPECT_TRUE(gw.allclose(scale(fresh.grad_weight, 2.0f), 1e-4f));
    EXPECT_TRUE(gb.allclose(scale(fresh.grad_bias, 2.0f), 1e-4f));
    EXPECT_TRUE(gi.allclose(scale(fresh.grad_input, 2.0f), 1e-4f));
}

TEST(BatchConv, BackwardDeterministicAcrossCalls) {
    rng gen(43);
    const conv2d_spec spec{3, 4, 3, 3, 1, 1};
    const tensor input = random_tensor({3, 3, 7, 7}, gen);
    const tensor weight = random_tensor({4, 3, 3, 3}, gen);
    const tensor grad_out = random_tensor({3, 4, 7, 7}, gen);
    const conv2d_grads first = conv2d_backward(input, weight, grad_out, spec);
    const conv2d_grads second = conv2d_backward(input, weight, grad_out, spec);
    EXPECT_TRUE(first.grad_input == second.grad_input);
    EXPECT_TRUE(first.grad_weight == second.grad_weight);
    EXPECT_TRUE(first.grad_bias == second.grad_bias);
}

// ---- k-subset GEMM and the conv padding-row skips --------------------------

/// Applies a {0,1} mask to a weight the way parameter::apply_mask does
/// (float multiply, so -0/NaN semantics match the serial FAP path).
tensor masked_copy(const tensor& w, rng& gen, double drop_p) {
    tensor m = w;
    for (std::size_t i = 0; i < m.numel(); ++i) {
        m.raw()[i] *= gen.uniform() < drop_p ? 0.0f : 1.0f;
    }
    return m;
}

bool same_bits(const tensor& a, const tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.raw(), b.raw(), a.numel() * sizeof(float)) == 0;
}

/// Offset tables reading a row-major [k, n] tensor through gemm_gather:
/// row_off[p] = p*n, col_off[j] = j.
class dense_gather {
public:
    explicit dense_gather(const tensor& b) : base_(b.raw()) {
        for (std::size_t p = 0; p < b.extent(0); ++p) { row_off_.push_back(p * b.extent(1)); }
        for (std::size_t j = 0; j < b.extent(1); ++j) { col_off_.push_back(j); }
    }
    gemm_gather gather() const { return {base_, row_off_.data(), col_off_.data()}; }

private:
    const float* base_;
    std::vector<std::size_t> row_off_;
    std::vector<std::size_t> col_off_;
};

TEST(GatherGemm, EqualsGemmNnOnTheMaterializedOperandAcrossTileEdges) {
    // B is read through shuffled offset tables over a scrambled buffer; the
    // result must equal gemm_nn on the materialized B bit for bit, with
    // NaN and Inf carried through, overwriting and accumulating.
    rng gen(2502);
    for (const auto& [m, k, n] : kShapes) {
        const tensor a = random_tensor({m, k}, gen);
        tensor b = random_tensor({k, n}, gen);
        b.raw()[(k * n) / 2] = std::numeric_limits<float>::quiet_NaN();
        b.raw()[k * n - 1] = std::numeric_limits<float>::infinity();
        // Scatter B into a buffer through random row and column offsets.
        std::vector<std::size_t> rows(k);
        std::vector<std::size_t> cols(n);
        for (std::size_t p = 0; p < k; ++p) { rows[p] = p * n; }
        for (std::size_t j = 0; j < n; ++j) { cols[j] = j; }
        gen.shuffle(rows);
        gen.shuffle(cols);
        std::vector<float> scrambled(k * n);
        for (std::size_t p = 0; p < k; ++p) {
            for (std::size_t j = 0; j < n; ++j) {
                scrambled[rows[p] + cols[j]] = b.raw()[p * n + j];
            }
        }
        const gemm_gather g{scrambled.data(), rows.data(), cols.data()};
        const tensor seed_c = random_tensor({m, n}, gen);
        for (const bool accumulate : {false, true}) {
            tensor want = seed_c;
            gemm_nn(m, n, k, a.raw(), k, b.raw(), n, want.raw(), n, accumulate,
                    workspace::local());
            tensor got = seed_c;
            gemm_nn_gather(m, n, k, a.raw(), k, g, got.raw(), n, accumulate,
                           workspace::local());
            EXPECT_TRUE(same_bits(want, got))
                << m << "x" << k << "x" << n << " accumulate=" << accumulate;
        }
    }
}

TEST(KSubsetGemm, EqualsFullGemmWithZeroRows) {
    // The structural-zero skip: a compact B missing rows that are exactly
    // zero must reproduce the full-k result bit for bit, with kept rows
    // spread across several KC panels (k = 600 spans three), overwriting
    // and accumulating.
    rng gen(303);
    const std::size_t m = 21, k = 600, n = 333;
    std::vector<std::size_t> kept;
    for (std::size_t p = 0; p < k; ++p) {
        if (p % 9 == 4 || p % 151 == 0) { kept.push_back(p); }
    }
    const tensor a = masked_copy(random_tensor({m, k}, gen), gen, 0.3);
    tensor b_full({k, n});  // zero except the kept rows
    tensor b_compact({kept.size(), n});
    for (std::size_t j = 0; j < kept.size(); ++j) {
        for (std::size_t q = 0; q < n; ++q) {
            const float v = static_cast<float>(gen.uniform(-1.0, 1.0));
            b_full.raw()[kept[j] * n + q] = v;
            b_compact.raw()[j * n + q] = v;
        }
    }
    const tensor seed_c = random_tensor({m, n}, gen);
    const gemm_k_subset subset{kept.data(), kept.size(), k};
    const dense_gather compact(b_compact);
    for (const bool accumulate : {false, true}) {
        tensor full = seed_c;
        gemm_nn(m, n, k, a.raw(), k, b_full.raw(), n, full.raw(), n, accumulate,
                workspace::local());
        tensor skipped = seed_c;
        gemm_nn_gather(m, n, k, a.raw(), k, compact.gather(), skipped.raw(), n, accumulate,
                       workspace::local(), &subset);
        EXPECT_TRUE(same_bits(full, skipped)) << "accumulate=" << accumulate;
    }
}

TEST(KSubsetGemm, FirstPanelEmptyStillOverwrites) {
    // No kept row in the first KC panel: the first non-empty panel must
    // overwrite C, not add onto stale contents.
    rng gen(305);
    const std::size_t m = 5, k = 520, n = 19;
    const std::vector<std::size_t> kept = {300, 301, 517};
    const tensor a = random_tensor({m, k}, gen);
    tensor b_full({k, n});
    tensor b_compact({kept.size(), n});
    for (std::size_t j = 0; j < kept.size(); ++j) {
        for (std::size_t q = 0; q < n; ++q) {
            const float v = static_cast<float>(gen.uniform(-1.0, 1.0));
            b_full.raw()[kept[j] * n + q] = v;
            b_compact.raw()[j * n + q] = v;
        }
    }
    tensor full({m, n});
    gemm_nn(m, n, k, a.raw(), k, b_full.raw(), n, full.raw(), n, false, workspace::local());
    tensor skipped = random_tensor({m, n}, gen);  // stale contents
    const gemm_k_subset subset{kept.data(), kept.size(), k};
    const dense_gather compact(b_compact);
    gemm_nn_gather(m, n, k, a.raw(), k, compact.gather(), skipped.raw(), n, false,
                   workspace::local(), &subset);
    EXPECT_TRUE(same_bits(full, skipped));
}

TEST(KSubsetGemm, Validates) {
    const std::size_t rows_bad[] = {3, 2};   // not ascending
    const std::size_t rows_oob[] = {3, 99};  // out of range
    const tensor a({4, 8});
    const tensor b({2, 4});
    const dense_gather gb(b);
    tensor c({4, 4});
    gemm_k_subset subset{rows_bad, 2, 8};
    EXPECT_ANY_THROW(gemm_nn_gather(4, 4, 8, a.raw(), 8, gb.gather(), c.raw(), 4, false,
                                    workspace::local(), &subset));
    subset.rows = rows_oob;
    EXPECT_ANY_THROW(gemm_nn_gather(4, 4, 8, a.raw(), 8, gb.gather(), c.raw(), 4, false,
                                    workspace::local(), &subset));
    const std::size_t rows_ok[] = {2, 3};
    subset = gemm_k_subset{rows_ok, 2, 7};  // original_k differs from k
    EXPECT_ANY_THROW(gemm_nn_gather(4, 4, 8, a.raw(), 8, gb.gather(), c.raw(), 4, false,
                                    workspace::local(), &subset));
}

// ---- the materialized lowering, kept here as the reference ----------------
//
// The index-math im2col/col2im the conv drivers ran before the implicit
// lowering, copied so the reference shares no code with them.

/// Lowers ONE patch row of `batch` [C,H,W] images into `drow_base`
/// (length batch*oh*ow), zeros in the padding.
void ref_lower_patch_row(const float* input, std::size_t batch, std::size_t in_h,
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

/// The patch matrix [patch_size, batch*oh*ow] of `batch` images; column
/// n*oh*ow + oy*ow + ox holds the patch of image n at output (oy, ox).
void ref_im2col_batch(const float* input, std::size_t batch, std::size_t in_h,
                      std::size_t in_w, const conv2d_spec& spec, float* dst) {
    const std::size_t total_cols = batch * spec.out_h(in_h) * spec.out_w(in_w);
    for (std::size_t r = 0; r < spec.patch_size(); ++r) {
        ref_lower_patch_row(input, batch, in_h, in_w, spec, r, dst + r * total_cols);
    }
}

/// Adjoint of ref_im2col_batch: ACCUMULATES (+=) `columns` onto `batch`
/// images at `dst`, each pixel's taps in ascending patch-row order.
void ref_col2im_batch(const float* columns, std::size_t batch, std::size_t in_h,
                      std::size_t in_w, const conv2d_spec& spec, float* dst) {
    const std::size_t oh = spec.out_h(in_h);
    const std::size_t ow = spec.out_w(in_w);
    const std::size_t out_cols = oh * ow;
    const std::size_t total_cols = batch * out_cols;
    const std::size_t image_elems = spec.in_channels * in_h * in_w;
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
                        if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(in_h)) { continue; }
                        float* irow = img + (c * in_h + static_cast<std::size_t>(iy)) * in_w;
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

/// The conv formulation before the padding-row skip and the implicit
/// lowering: every patch row materialized (ref_im2col_batch) and
/// multiplied by full-k GEMMs, `chunk` images at a time. conv2d_forward and
/// conv2d_backward_acc must match it bit for bit for any operands.
tensor full_lowering_forward(const tensor& input, const tensor& weight, const tensor& bias,
                             const conv2d_spec& spec) {
    const std::size_t batch = input.extent(0);
    const std::size_t in_h = input.extent(2);
    const std::size_t in_w = input.extent(3);
    const std::size_t plane = spec.out_h(in_h) * spec.out_w(in_w);
    const std::size_t patch = spec.patch_size();
    const std::size_t cols = batch * plane;
    std::vector<float> lowered(patch * cols);
    ref_im2col_batch(input.raw(), batch, in_h, in_w, spec, lowered.data());
    const tensor prod = matmul(weight.reshaped({spec.out_channels, patch}),
                               tensor({patch, cols}, lowered));
    tensor out({batch, spec.out_channels, spec.out_h(in_h), spec.out_w(in_w)});
    for (std::size_t oc = 0; oc < spec.out_channels; ++oc) {
        for (std::size_t n = 0; n < batch; ++n) {
            for (std::size_t i = 0; i < plane; ++i) {
                out.raw()[(n * spec.out_channels + oc) * plane + i] =
                    prod.raw()[oc * cols + n * plane + i] + bias[oc];
            }
        }
    }
    return out;
}

void full_lowering_backward_acc(const tensor& input, const tensor& weight,
                                const tensor& grad_output, const conv2d_spec& spec,
                                std::size_t chunk, tensor& gin, tensor& gw, tensor& gb) {
    const std::size_t batch = input.extent(0);
    const std::size_t in_h = input.extent(2);
    const std::size_t in_w = input.extent(3);
    const std::size_t plane = spec.out_h(in_h) * spec.out_w(in_w);
    const std::size_t patch = spec.patch_size();
    const std::size_t out_c = spec.out_channels;
    const std::size_t image_elems = spec.in_channels * in_h * in_w;
    workspace& ws = workspace::local();
    for (std::size_t n0 = 0; n0 < batch; n0 += chunk) {
        const std::size_t nb = std::min(chunk, batch - n0);
        const std::size_t cols = nb * plane;
        std::vector<float> lowered(patch * cols);
        ref_im2col_batch(input.raw() + n0 * image_elems, nb, in_h, in_w, spec, lowered.data());
        std::vector<float> dy(out_c * cols);
        for (std::size_t oc = 0; oc < out_c; ++oc) {
            for (std::size_t n = 0; n < nb; ++n) {
                std::memcpy(dy.data() + oc * cols + n * plane,
                            grad_output.raw() + ((n0 + n) * out_c + oc) * plane,
                            plane * sizeof(float));
            }
        }
        gemm_nt(out_c, patch, cols, dy.data(), cols, lowered.data(), cols, gw.raw(), patch,
                /*accumulate=*/true, ws);
        for (std::size_t oc = 0; oc < out_c; ++oc) {
            float acc = 0.0f;
            for (std::size_t i = 0; i < cols; ++i) { acc += dy[oc * cols + i]; }
            gb.raw()[oc] += acc;
        }
        std::vector<float> grad_cols(patch * cols);
        gemm_tn(patch, cols, out_c, weight.raw(), patch, dy.data(), cols, grad_cols.data(),
                cols, /*accumulate=*/false, ws);
        ref_col2im_batch(grad_cols.data(), nb, in_h, in_w, spec, gin.raw() + n0 * image_elems);
    }
}

/// Runs conv2d_forward + two accumulating conv2d_backward_acc calls onto
/// the given starting gradients and checks every output against the full
/// lowering, bit for bit.
void expect_matches_full_lowering(const tensor& input, const tensor& weight, const tensor& bias,
                                  const tensor& grad_output, const conv2d_spec& spec,
                                  const tensor& gw0, std::size_t ref_chunk,
                                  const std::string& label) {
    EXPECT_TRUE(same_bits(conv2d_forward(input, weight, bias, spec),
                          full_lowering_forward(input, weight, bias, spec)))
        << label << ": forward";
    tensor gin(input.shape());
    tensor gw = gw0;
    tensor gb({spec.out_channels});
    tensor ref_gin(input.shape());
    tensor ref_gw = gw0;
    tensor ref_gb({spec.out_channels});
    for (int pass = 0; pass < 2; ++pass) {
        conv2d_backward_acc(input, weight, grad_output, spec, gin, gw, gb);
        full_lowering_backward_acc(input, weight, grad_output, spec, ref_chunk, ref_gin,
                                   ref_gw, ref_gb);
        EXPECT_TRUE(same_bits(gin, ref_gin)) << label << ": dX pass " << pass;
        EXPECT_TRUE(same_bits(gw, ref_gw)) << label << ": dW pass " << pass;
        EXPECT_TRUE(same_bits(gb, ref_gb)) << label << ": db pass " << pass;
    }
}

TEST(PaddingSkipConv, MatchesFullLoweringBitwise) {
    // 1x1 spatial with a 3x3 kernel + padding: 8 of 9 patch rows lower to
    // structural zeros and are skipped; 1x5 skips the ky rows; 4x4 skips
    // nothing. Masked weights.
    rng gen(306);
    const conv2d_spec spec{3, 6, 3, 3, 1, 1};
    for (const auto& [h, w] : std::vector<std::pair<std::size_t, std::size_t>>{{1, 1},
                                                                              {1, 5},
                                                                              {4, 4}}) {
        const tensor input = random_tensor({5, 3, h, w}, gen);
        const tensor weight = masked_copy(random_tensor({6, 3, 3, 3}, gen), gen, 0.2);
        const tensor bias = random_tensor({6}, gen);
        const tensor grad_output = random_tensor({5, 6, spec.out_h(h), spec.out_w(w)}, gen);
        expect_matches_full_lowering(input, weight, bias, grad_output, spec,
                                     tensor(weight.shape()), 5,
                                     std::to_string(h) + "x" + std::to_string(w));
    }
}

TEST(PaddingSkipConv, StaysExactForNonFiniteWeightsAndGradients) {
    // Inf and NaN weights in skipped (all-padding) columns turn the taps'
    // zeros into NaN under the full lowering, and so does a NaN in dY for
    // the skipped dW columns: both must fall back to full rows.
    rng gen(41);
    const conv2d_spec spec{3, 4, 3, 3, 1, 1};
    ASSERT_EQ(conv_active_patch_rows(spec, 1, 1).size(), 3u);
    const tensor input = random_tensor({2, 3, 1, 1}, gen);
    const tensor bias = random_tensor({4}, gen);
    const tensor finite_w = random_tensor({4, 3, 3, 3}, gen);
    tensor poisoned_w = finite_w;
    poisoned_w.at4(0, 0, 0, 0) = std::numeric_limits<float>::infinity();
    poisoned_w.at4(2, 1, 2, 1) = std::numeric_limits<float>::quiet_NaN();
    const tensor finite_dy = random_tensor({2, 4, 1, 1}, gen);
    tensor poisoned_dy = finite_dy;
    poisoned_dy[5] = std::numeric_limits<float>::quiet_NaN();
    tensor inf_dy = finite_dy;
    inf_dy[2] = -std::numeric_limits<float>::infinity();
    expect_matches_full_lowering(input, poisoned_w, bias, finite_dy, spec,
                                 tensor(finite_w.shape()), 2, "non-finite W");
    expect_matches_full_lowering(input, finite_w, bias, poisoned_dy, spec,
                                 tensor(finite_w.shape()), 2, "NaN dY");
    expect_matches_full_lowering(input, finite_w, bias, inf_dy, spec,
                                 tensor(finite_w.shape()), 2, "Inf dY");
    // The poison reached the outputs, so the fallbacks were exercised.
    const tensor poisoned_out = conv2d_forward(input, poisoned_w, bias, spec);
    bool fwd_nan = false;
    for (const float v : poisoned_out.data()) { fwd_nan |= std::isnan(v); }
    EXPECT_TRUE(fwd_nan);
}

TEST(PaddingSkipConv, AccumulatesExactlyOntoAnyGradWeight) {
    // conv2d_backward_acc adds onto whatever grad_weight holds: a non-zero
    // gradient keeps its skipped columns (plus the full GEMM's +0), and a
    // -0 entry becomes +0 there exactly as the full GEMM leaves it.
    rng gen(47);
    const conv2d_spec spec{2, 5, 3, 3, 1, 1};
    const tensor input = random_tensor({3, 2, 1, 1}, gen);
    const tensor weight = random_tensor({5, 2, 3, 3}, gen);
    const tensor bias = random_tensor({5}, gen);
    const tensor grad_output = random_tensor({3, 5, 1, 1}, gen);
    expect_matches_full_lowering(input, weight, bias, grad_output, spec,
                                 random_tensor(weight.shape(), gen), 3, "non-zero dW");
    const tensor negative_zero(weight.shape(), -0.0f);
    expect_matches_full_lowering(input, weight, bias, grad_output, spec, negative_zero, 3,
                                 "-0 dW");
    tensor gin(input.shape());
    tensor gw = negative_zero;
    tensor gb({5});
    conv2d_backward_acc(input, weight, grad_output, spec, gin, gw, gb);
    EXPECT_FALSE(std::signbit(gw.at4(0, 0, 0, 0)));  // a skipped column
}

TEST(PaddingSkipConv, ChunkedLoweringStaysBitwiseIdentical) {
    // A 1-byte budget forces one image per lowered chunk with the skip
    // active (1x1 spatial) and inactive (4x4): chunking moves no forward
    // bit, and backward follows the one-image chunk chain exactly.
    rng gen(307);
    const conv2d_spec spec{3, 6, 3, 3, 1, 1};
    for (const auto& [h, w] :
         std::vector<std::pair<std::size_t, std::size_t>>{{1, 1}, {4, 4}}) {
        const tensor input = random_tensor({5, 3, h, w}, gen);
        const tensor weight = masked_copy(random_tensor({6, 3, 3, 3}, gen), gen, 0.2);
        const tensor bias = random_tensor({6}, gen);
        const tensor grad_output = random_tensor({5, 6, spec.out_h(h), spec.out_w(w)}, gen);
        const tensor whole = conv2d_forward(input, weight, bias, spec);
        budget_guard tiny(1);
        EXPECT_TRUE(same_bits(conv2d_forward(input, weight, bias, spec), whole))
            << h << "x" << w;
        expect_matches_full_lowering(input, weight, bias, grad_output, spec,
                                     tensor(weight.shape()), 1,
                                     std::to_string(h) + "x" + std::to_string(w) + " chunked");
    }
}

TEST(PaddingSkipConv, ActivePatchRowsGeometry) {
    // 3x3 kernel, padding 1: at 1x1 spatial only the center tap survives;
    // at 4x4 every tap is live somewhere.
    const conv2d_spec spec{2, 4, 3, 3, 1, 1};
    const std::vector<std::size_t> tiny = conv_active_patch_rows(spec, 1, 1);
    ASSERT_EQ(tiny.size(), 2u);  // one center tap per input channel
    EXPECT_EQ(tiny[0], 4u);
    EXPECT_EQ(tiny[1], 13u);
    EXPECT_EQ(conv_active_patch_rows(spec, 4, 4).size(), spec.patch_size());
    // 1x5: rows with out-of-bounds ky die, kx taps all live.
    EXPECT_EQ(conv_active_patch_rows(spec, 1, 5).size(), 2u * 3u);
}

TEST(BatchConv, Im2colBatchMatchesPerImage) {
    rng gen(47);
    const conv2d_spec spec{2, 3, 2, 2, 1, 1};
    const tensor input = random_tensor({3, 2, 4, 5}, gen);
    const std::size_t oh = spec.out_h(4);
    const std::size_t ow = spec.out_w(5);
    std::vector<float> batch_cols(spec.patch_size() * 3 * oh * ow);
    ref_im2col_batch(input.raw(), 3, 4, 5, spec, batch_cols.data());
    const std::size_t image_elems = 2 * 4 * 5;
    for (std::size_t n = 0; n < 3; ++n) {
        tensor image({2, 4, 5},
                     std::vector<float>(input.raw() + n * image_elems,
                                        input.raw() + (n + 1) * image_elems));
        const tensor cols = im2col(image, spec);
        for (std::size_t r = 0; r < spec.patch_size(); ++r) {
            for (std::size_t q = 0; q < oh * ow; ++q) {
                ASSERT_EQ(batch_cols[r * (3 * oh * ow) + n * oh * ow + q], cols.at2(r, q))
                    << "n=" << n << " r=" << r << " q=" << q;
            }
        }
    }
    // col2im is the single-image adjoint of the same lowering.
    const tensor grads = random_tensor({spec.patch_size(), 3 * oh * ow}, gen);
    std::vector<float> batch_images(3 * image_elems, 0.0f);
    ref_col2im_batch(grads.raw(), 3, 4, 5, spec, batch_images.data());
    for (std::size_t n = 0; n < 3; ++n) {
        tensor cols({spec.patch_size(), oh * ow});
        for (std::size_t r = 0; r < spec.patch_size(); ++r) {
            for (std::size_t q = 0; q < oh * ow; ++q) {
                cols.at2(r, q) = grads.at2(r, n * oh * ow + q);
            }
        }
        const tensor image = col2im(cols, spec, 4, 5);
        EXPECT_EQ(std::memcmp(image.raw(), batch_images.data() + n * image_elems,
                              image_elems * sizeof(float)),
                  0)
            << "n=" << n;
    }
}

// ---- the implicit lowering over a geometry grid -----------------------------

TEST(ImplicitConv, MatchesFullLoweringOverGeometryGrid) {
    // Kernels 1x1, 3x3, 1x3, 3x1 x stride 1-3 x padding 0-2, each at a
    // seeded H != W in 1..9, batch 1-5 and small channel counts, whole and
    // chunked one image at a time. Each geometry runs five operand sets:
    // plain masked weights; Inf/NaN weights in a skipped column (or any
    // column when none is skipped); NaN dY; Inf dY; -0 in grad_weight.
    rng gen(2503);
    const std::vector<std::pair<std::size_t, std::size_t>> kernels = {
        {1, 1}, {3, 3}, {1, 3}, {3, 1}};
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    std::size_t geometries = 0;
    for (const auto& [kh, kw] : kernels) {
        for (std::size_t stride = 1; stride <= 3; ++stride) {
            for (std::size_t padding = 0; padding <= 2; ++padding) {
                std::size_t h = 0;
                std::size_t w = 0;
                do {
                    h = static_cast<std::size_t>(gen.uniform_int(1, 9));
                    w = static_cast<std::size_t>(gen.uniform_int(1, 9));
                } while (h == w || h + 2 * padding < kh || w + 2 * padding < kw);
                const std::size_t batch = static_cast<std::size_t>(gen.uniform_int(1, 5));
                const std::size_t in_c = static_cast<std::size_t>(gen.uniform_int(1, 3));
                const std::size_t out_c = static_cast<std::size_t>(gen.uniform_int(1, 5));
                const conv2d_spec spec{in_c, out_c, kh, kw, stride, padding};
                const std::size_t oh = spec.out_h(h);
                const std::size_t ow = spec.out_w(w);
                ++geometries;

                const tensor input = random_tensor({batch, in_c, h, w}, gen);
                const tensor weight =
                    masked_copy(random_tensor({out_c, in_c, kh, kw}, gen), gen, 0.2);
                const tensor bias = random_tensor({out_c}, gen);
                const tensor dy = random_tensor({batch, out_c, oh, ow}, gen);

                // A skipped column when there is one, else column 0.
                const std::vector<std::size_t> active = conv_active_patch_rows(spec, h, w);
                std::size_t dead = 0;
                while (dead < active.size() && active[dead] == dead) { ++dead; }
                if (dead == spec.patch_size()) { dead = 0; }
                tensor poisoned_w = weight;
                poisoned_w.raw()[dead] = inf;
                poisoned_w.raw()[(out_c - 1) * spec.patch_size() + dead] = nan;
                tensor nan_dy = dy;
                nan_dy.raw()[dy.numel() / 2] = nan;
                tensor inf_dy = dy;
                inf_dy.raw()[0] = -inf;

                const std::string where = std::to_string(kh) + "x" + std::to_string(kw) +
                                          " s" + std::to_string(stride) + " p" +
                                          std::to_string(padding) + " " + std::to_string(h) +
                                          "x" + std::to_string(w) + " n" +
                                          std::to_string(batch);
                for (const bool chunked : {false, true}) {
                    std::optional<budget_guard> tiny;
                    if (chunked) { tiny.emplace(1); }
                    const std::size_t chunk = chunked ? 1 : batch;
                    const std::string label = where + (chunked ? " chunked" : "");
                    const tensor zero_gw(weight.shape());
                    expect_matches_full_lowering(input, weight, bias, dy, spec, zero_gw, chunk,
                                                 label);
                    expect_matches_full_lowering(input, poisoned_w, bias, dy, spec, zero_gw,
                                                 chunk, label + " non-finite W");
                    expect_matches_full_lowering(input, weight, bias, nan_dy, spec, zero_gw,
                                                 chunk, label + " NaN dY");
                    expect_matches_full_lowering(input, weight, bias, inf_dy, spec, zero_gw,
                                                 chunk, label + " Inf dY");
                    expect_matches_full_lowering(input, weight, bias, dy, spec,
                                                 tensor(weight.shape(), -0.0f), chunk,
                                                 label + " -0 dW");
                }
            }
        }
    }
    EXPECT_EQ(geometries, 36u);
}

TEST(ImplicitConv, StagingBorderIsZeroedOnEveryCall) {
    // A fresh thread's arena is seeded with one NaN-filled slab, released,
    // so the first slab each conv call leases (the staged images) holds
    // NaN: a padding border that is not re-zeroed turns outputs and dW
    // into NaN. Every patch row is live here, so backward leases the
    // staging slab first too.
    rng gen(2504);
    const conv2d_spec spec{3, 4, 3, 3, 1, 1};
    ASSERT_EQ(conv_active_patch_rows(spec, 4, 5).size(), spec.patch_size());
    const tensor input = random_tensor({2, 3, 4, 5}, gen);
    const tensor weight = random_tensor({4, 3, 3, 3}, gen);
    const tensor bias = random_tensor({4}, gen);
    const tensor dy = random_tensor({2, 4, 4, 5}, gen);
    const auto with_poisoned_arena = [](const auto& body) {
        std::thread worker([&]() {
            {
                workspace::buffer slab = workspace::local().acquire(1u << 12);
                std::fill_n(slab.data(), slab.size(), std::numeric_limits<float>::quiet_NaN());
            }
            body();
        });
        worker.join();
    };
    tensor out;
    with_poisoned_arena([&]() { out = conv2d_forward(input, weight, bias, spec); });
    EXPECT_TRUE(same_bits(out, full_lowering_forward(input, weight, bias, spec)));

    tensor gin(input.shape());
    tensor gw(weight.shape());
    tensor gb({4});
    with_poisoned_arena([&]() { conv2d_backward_acc(input, weight, dy, spec, gin, gw, gb); });
    tensor ref_gin(input.shape());
    tensor ref_gw(weight.shape());
    tensor ref_gb({4});
    full_lowering_backward_acc(input, weight, dy, spec, 2, ref_gin, ref_gw, ref_gb);
    EXPECT_TRUE(same_bits(gin, ref_gin));
    EXPECT_TRUE(same_bits(gw, ref_gw));
    EXPECT_TRUE(same_bits(gb, ref_gb));
}

}  // namespace
}  // namespace reduce
