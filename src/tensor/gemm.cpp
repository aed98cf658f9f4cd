#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>

#include "tensor/workspace.h"
#include "util/error.h"

namespace reduce {

namespace {

// Register micro-tile: MR rows x NR columns of C held in registers while
// the packed K panel streams through. NR = 16 makes the unrolled j loop two
// AVX vectors wide in the avx2 clone, and 4 x 2 = 8 independent accumulator
// chains — enough to cover the 4-cycle FP-add latency at 2 adds/cycle, which
// a 4 x 8 tile cannot (it left the kernel latency-bound at ~70% of peak).
constexpr std::size_t MR = 4;
constexpr std::size_t NR = 16;

// Cache tiles: a packed B panel (KC x NC = 64 KiB) stays L2-resident while
// packed A blocks (MC x KC = 64 KiB) stream; one A strip (MR x KC) plus one
// B strip (KC x NR) live in L1 during the micro-kernel.
constexpr std::size_t MC = 64;
constexpr std::size_t NC = 64;
constexpr std::size_t KC = 256;

static_assert(MC % MR == 0, "MC must be a multiple of MR");
static_assert(NC % NR == 0, "NC must be a multiple of NR");

/// Packs `extent` lanes of a strided operand, `depth` deep, into W-lane
/// strips: strip s holds lanes [s*W, s*W+W) as `depth` consecutive W-wide
/// slices. Lane l at depth d is src[l*ls + d*ds]. Lanes past `extent` are
/// zero-padded so the micro-kernel never branches on the edge; the padded
/// products land in accumulator lanes that are discarded on store. A full
/// strip copies W lanes per depth step with a fixed trip count, as one
/// contiguous W-float copy when the lanes are adjacent (ls == 1).
///
/// A's MR-row strips are pack_strips<MR>(a, rs, cs, mc, kc); B's NR-column
/// strips are pack_strips<NR>(b, cs, rs, nc, kc), for the row/column
/// strides rs/cs of the source element (i, p) or (p, j).
template <std::size_t W>
void pack_strips(const float* src, std::size_t ls, std::size_t ds, std::size_t extent,
                 std::size_t depth, float* dst) {
    for (std::size_t s = 0; s < extent; s += W, src += W * ls) {
        const std::size_t w = std::min(W, extent - s);
        if (w == W && ls == 1) {
            for (std::size_t d = 0; d < depth; ++d, dst += W) {
                std::memcpy(dst, src + d * ds, W * sizeof(float));
            }
        } else if (w == W) {
            for (std::size_t d = 0; d < depth; ++d, dst += W) {
                for (std::size_t l = 0; l < W; ++l) { dst[l] = src[l * ls + d * ds]; }
            }
        } else {
            for (std::size_t d = 0; d < depth; ++d, dst += W) {
                for (std::size_t l = 0; l < w; ++l) { dst[l] = src[l * ls + d * ds]; }
                for (std::size_t l = w; l < W; ++l) { dst[l] = 0.0f; }
            }
        }
    }
}

/// Packs an mc x kc block of A whose kc source columns are listed in `cols`
/// (absolute column indices of the row-major operand) — the k-subset form
/// of pack_strips<MR>. `a` points at the block's first row; `rs` is the row
/// stride.
void pack_a_cols(const float* a, std::size_t rs, const std::size_t* cols, std::size_t mc,
                 std::size_t kc, float* dst) {
    for (std::size_t ir = 0; ir < mc; ir += MR) {
        const std::size_t mr = std::min(MR, mc - ir);
        for (std::size_t p = 0; p < kc; ++p) {
            const std::size_t col = cols[p];
            for (std::size_t i = 0; i < mr; ++i) { dst[i] = a[(ir + i) * rs + col]; }
            for (std::size_t i = mr; i < MR; ++i) { dst[i] = 0.0f; }
            dst += MR;
        }
    }
}

/// pack_strips<NR> for a gathered B operand (gemm_gather): lane j at depth
/// p is base[row_off[p] + col_off[j]]. `row_off` and `col_off` point at the
/// panel's first depth step and first lane; edge strips are zero-padded
/// exactly like pack_strips.
void gather_strips(const float* base, const std::size_t* row_off, const std::size_t* col_off,
                   std::size_t extent, std::size_t depth, float* dst) {
    for (std::size_t s = 0; s < extent; s += NR, col_off += NR) {
        const std::size_t w = std::min(NR, extent - s);
        if (w == NR) {
            for (std::size_t d = 0; d < depth; ++d, dst += NR) {
                const float* src = base + row_off[d];
                for (std::size_t l = 0; l < NR; ++l) { dst[l] = src[col_off[l]]; }
            }
        } else {
            for (std::size_t d = 0; d < depth; ++d, dst += NR) {
                const float* src = base + row_off[d];
                for (std::size_t l = 0; l < w; ++l) { dst[l] = src[col_off[l]]; }
                for (std::size_t l = w; l < NR; ++l) { dst[l] = 0.0f; }
            }
        }
    }
}

/// B packers for the driver: pack(p0, kc, j0, nc, dst) packs the NR-column
/// strips of B rows [p0, p0 + kc) (compact rows under a k subset) and
/// columns [j0, j0 + nc). `strided_b` reads B element (p, j) at
/// b[p*rs + j*cs]; `gathered_b` reads it through a gemm_gather.
struct strided_b {
    const float* b;
    std::size_t rs;
    std::size_t cs;
    void operator()(std::size_t p0, std::size_t kc, std::size_t j0, std::size_t nc,
                    float* dst) const {
        pack_strips<NR>(b + p0 * rs + j0 * cs, cs, rs, nc, kc, dst);
    }
};

struct gathered_b {
    gemm_gather g;
    void operator()(std::size_t p0, std::size_t kc, std::size_t j0, std::size_t nc,
                    float* dst) const {
        gather_strips(g.base, g.row_off + p0, g.col_off + j0, nc, kc, dst);
    }
};

// GCC/clang generic vectors: element-wise IEEE float ops on every target
// (lowered to two SSE vectors on baseline x86-64, one AVX vector in the
// avx2 clone, scalar code elsewhere). The unaligned typedef is for loads
// from the packed panels, which are only guaranteed float-aligned.
typedef float vf8 __attribute__((vector_size(32)));
typedef float vf8u __attribute__((vector_size(32), aligned(4)));

/// Writes one finished accumulator row pair to `row` (NR floats): a plain
/// store, or `row += acc` with C as the left operand, the same operation
/// the driver's scalar edge-tile loop performs.
__attribute__((always_inline)) inline void store_row(float* row, const vf8& lo, const vf8& hi,
                                                    bool add) {
    vf8u* const v0 = reinterpret_cast<vf8u*>(row);
    vf8u* const v1 = reinterpret_cast<vf8u*>(row + 8);
    if (add) {
        *v0 = *v0 + lo;
        *v1 = *v1 + hi;
    } else {
        *v0 = lo;
        *v1 = hi;
    }
}

/// The register kernel: an MR x NR accumulator tile held in 8 named vector
/// registers (4 rows x 2 vectors) while a kc-deep packed panel streams
/// through. Eight independent accumulation chains cover the FP-add latency;
/// a 4 x 8 tile (4 chains) measured latency-bound at ~70% of peak, and an
/// accumulator ARRAY instead of named variables defeats the compiler's
/// scalar replacement and falls off a performance cliff.
///
/// Each accumulator starts at +0 and ends as the panel's sum, which goes
/// straight from the registers to `out` (row stride `ldo`): stored, or
/// added onto what is there when `add`. The driver passes a full C tile
/// directly and a scratch MR x NR tile (ldo = NR, add = false) for a
/// partial edge tile.
///
/// Each A element is splatted as read (`vf8{s, ..., s}`): the AVX2+FMA
/// clone compiles that to one `vbroadcastss` from memory per row, so a k
/// step issues 2 B loads, 4 broadcast-loads and 8 FMAs. `vf8{} + s` costs
/// a scalar add and a register broadcast per row, and is not the same
/// arithmetic: 0 + -0 is +0. That sign reaches an output only through an
/// accumulator at -0, which an unfused chain never holds (it starts at +0,
/// and a round-to-nearest sum is -0 only when both terms are) and a fused
/// one holds only after an FMA result underflows to -0. There, reading A
/// as stored keeps the documented `c += a * b` order.
///
/// Kernel body, instantiated twice below under different target attributes.
/// always_inline so each wrapper compiles it with its own ISA: the AVX2+FMA
/// wrapper turns each `c += a * b` pair into one 8-wide vfmadd; the
/// portable wrapper lowers the generic vectors to baseline (two SSE vectors
/// per accumulator on x86-64, scalars elsewhere).
__attribute__((always_inline)) inline void micro_kernel_body(std::size_t kc,
                                                             const float* __restrict pa,
                                                             const float* __restrict pb,
                                                             float* __restrict out,
                                                             std::size_t ldo, bool add) {
    static_assert(MR == 4 && NR == 16, "micro_kernel is hand-unrolled for a 4x16 tile");
    vf8 c00{}, c01{}, c10{}, c11{}, c20{}, c21{}, c30{}, c31{};
    for (std::size_t p = 0; p < kc; ++p) {
        const float* av = pa + p * MR;
        const float* bv = pb + p * NR;
        const vf8 b0 = *reinterpret_cast<const vf8u*>(bv);
        const vf8 b1 = *reinterpret_cast<const vf8u*>(bv + 8);
        const float s0 = av[0], s1 = av[1], s2 = av[2], s3 = av[3];
        const vf8 a0 = {s0, s0, s0, s0, s0, s0, s0, s0};
        const vf8 a1 = {s1, s1, s1, s1, s1, s1, s1, s1};
        const vf8 a2 = {s2, s2, s2, s2, s2, s2, s2, s2};
        const vf8 a3 = {s3, s3, s3, s3, s3, s3, s3, s3};
        c00 += a0 * b0;
        c01 += a0 * b1;
        c10 += a1 * b0;
        c11 += a1 * b1;
        c20 += a2 * b0;
        c21 += a2 * b1;
        c30 += a3 * b0;
        c31 += a3 * b1;
    }
    store_row(out + 0 * ldo, c00, c01, add);
    store_row(out + 1 * ldo, c10, c11, add);
    store_row(out + 2 * ldo, c20, c21, add);
    store_row(out + 3 * ldo, c30, c31, add);
}

using micro_kernel_fn = void (*)(std::size_t, const float*, const float*, float*, std::size_t,
                                 bool);

void micro_kernel_portable(std::size_t kc, const float* __restrict pa,
                           const float* __restrict pb, float* __restrict out, std::size_t ldo,
                           bool add) {
    micro_kernel_body(kc, pa, pb, out, ldo, add);
}

#if defined(__x86_64__)
#define REDUCE_GEMM_X86_DISPATCH 1
__attribute__((target("avx2,fma"))) void micro_kernel_avx2(std::size_t kc,
                                                           const float* __restrict pa,
                                                           const float* __restrict pb,
                                                           float* __restrict out,
                                                           std::size_t ldo, bool add) {
    micro_kernel_body(kc, pa, pb, out, ldo, add);
}
#endif

/// Picks the widest kernel the CPU supports, once per process (feature
/// detection via __builtin_cpu_supports, so any AVX2+FMA machine takes the
/// fast path regardless of vendor/model). Determinism contract: on a given
/// machine and build every result is bit-identical run-to-run, across
/// thread counts, and across cell partitions — the dispatch decision is fixed
/// for the process lifetime. Results may differ at the last ulp BETWEEN
/// machines of different ISA level (FMA skips an intermediate rounding) —
/// the same caveat REDUCE_NATIVE carries, and no worse than libm's exp/log
/// already imposed on cross-machine runs; run distributed workers on one
/// ISA generation when byte-identical artifacts matter.
micro_kernel_fn select_micro_kernel() {
#if REDUCE_GEMM_X86_DISPATCH
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
        return micro_kernel_avx2;
    }
#endif
    return micro_kernel_portable;
}

const micro_kernel_fn micro_kernel = select_micro_kernel();

/// The one driver: C[m,n] (+)= A · B, where A element (i, p) sits at
/// a[i*ars + p*acs] and B is whatever `pack_b` packs (strided_b or
/// gathered_b). Each B cache panel is packed once per NC panel column and
/// shared across that column's MC block rows. For every C element the
/// order of operations is fixed: KC panels ascending, p ascending within a
/// panel.
///
/// With a non-null `krows` (a gemm_k_subset over the original k), B's row
/// index p is COMPACT: compact row p stands for original row krows[p], and
/// A is packed from those original columns (acs must be 1). KC panel
/// boundaries follow the ORIGINAL k, so every element's chain is the full
/// chain with the missing rows' exact-zero products removed.
template <typename PackB>
void gemm_strided(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t ars,
                  std::size_t acs, const PackB& pack_b, float* c, std::size_t ldc,
                  bool accumulate, workspace& ws, const std::size_t* krows = nullptr,
                  std::size_t k_compact = 0) {
    if (krows == nullptr) { k_compact = k; }
    if (m == 0 || n == 0) { return; }
    if (k_compact == 0) {
        if (!accumulate) {
            for (std::size_t i = 0; i < m; ++i) {
                std::memset(c + i * ldc, 0, n * sizeof(float));
            }
        }
        return;
    }

    workspace::buffer apack = ws.acquire(MC * KC);
    workspace::buffer bpack = ws.acquire(KC * NC);

    for (std::size_t jc = 0; jc < n; jc += NC) {
        const std::size_t nc = std::min(NC, n - jc);
        bool first_panel = true;
        std::size_t c0 = 0;  // compact row where the current panel starts
        for (std::size_t pc = 0; pc < k; pc += KC) {
            std::size_t c1 = std::min(k, pc + KC);  // c0 == pc without a subset
            if (krows != nullptr) {
                c1 = c0;
                while (c1 < k_compact && krows[c1] < pc + KC) { ++c1; }
            }
            const std::size_t kc = c1 - c0;
            if (kc == 0) { continue; }  // an all-zero panel contributes exact +0
            // KC panels accumulate in ascending pc order into C — a fixed
            // total order per output element, independent of inputs. The
            // first NON-EMPTY panel overwrites: skipped all-zero panels
            // would only have stored +0 sums that later panels add onto.
            const bool overwrite = !accumulate && first_panel;
            first_panel = false;
            pack_b(c0, kc, jc, nc, bpack.data());
            for (std::size_t ic = 0; ic < m; ic += MC) {
                const std::size_t mc = std::min(MC, m - ic);
                if (krows == nullptr) {
                    pack_strips<MR>(a + ic * ars + pc * acs, ars, acs, mc, kc, apack.data());
                } else {
                    pack_a_cols(a + ic * ars, ars, krows + c0, mc, kc, apack.data());
                }
                for (std::size_t jr = 0; jr < nc; jr += NR) {
                    const std::size_t nr = std::min(NR, nc - jr);
                    const float* bstrip = bpack.data() + (jr / NR) * kc * NR;
                    for (std::size_t ir = 0; ir < mc; ir += MR) {
                        const std::size_t mr = std::min(MR, mc - ir);
                        const float* astrip = apack.data() + (ir / MR) * kc * MR;
                        float* ctile = c + (ic + ir) * ldc + jc + jr;
                        if (mr == MR && nr == NR) {  // a full tile goes straight to C
                            micro_kernel(kc, astrip, bstrip, ctile, ldc, !overwrite);
                            continue;
                        }
                        float acc[MR * NR];  // fully written by the kernel
                        micro_kernel(kc, astrip, bstrip, acc, NR, false);
                        if (overwrite) {
                            for (std::size_t i = 0; i < mr; ++i) {
                                for (std::size_t j = 0; j < nr; ++j) {
                                    ctile[i * ldc + j] = acc[i * NR + j];
                                }
                            }
                        } else {
                            for (std::size_t i = 0; i < mr; ++i) {
                                for (std::size_t j = 0; j < nr; ++j) {
                                    ctile[i * ldc + j] += acc[i * NR + j];
                                }
                            }
                        }
                    }
                }
            }
            c0 = c1;
        }
    }
}

/// Validates a k subset (ascending, in range).
void check_subset(const gemm_k_subset& subset, std::size_t k) {
    REDUCE_CHECK(subset.original_k == k,
                 "gemm k-subset original_k " << subset.original_k
                                             << " does not match the call's k " << k);
    REDUCE_CHECK(subset.count == 0 || subset.rows != nullptr,
                 "gemm k-subset has a count but no row list");
    for (std::size_t j = 0; j < subset.count; ++j) {
        REDUCE_CHECK(subset.rows[j] < k, "gemm k-subset row " << subset.rows[j]
                                                              << " out of range for k " << k);
        REDUCE_CHECK(j == 0 || subset.rows[j - 1] < subset.rows[j],
                     "gemm k-subset rows must be strictly ascending");
    }
}

}  // namespace

void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
             const float* b, std::size_t ldb, float* c, std::size_t ldc, bool accumulate,
             workspace& ws) {
    gemm_strided(m, n, k, a, lda, 1, strided_b{b, ldb, 1}, c, ldc, accumulate, ws);
}

void gemm_nn_gather(std::size_t m, std::size_t n, std::size_t k, const float* a,
                    std::size_t lda, const gemm_gather& b, float* c, std::size_t ldc,
                    bool accumulate, workspace& ws, const gemm_k_subset* subset) {
    if (subset == nullptr) {
        gemm_strided(m, n, k, a, lda, 1, gathered_b{b}, c, ldc, accumulate, ws);
        return;
    }
    check_subset(*subset, k);
    // An empty subset leaves only exact-zero products: k_compact = 0.
    gemm_strided(m, n, subset->count == 0 ? 0 : k, a, lda, 1, gathered_b{b}, c, ldc,
                 accumulate, ws, subset->rows, subset->count);
}

void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
             const float* b, std::size_t ldb, float* c, std::size_t ldc, bool accumulate,
             workspace& ws) {
    // B stored [n, k] row-major: element (p, j) = b[j * ldb + p].
    gemm_strided(m, n, k, a, lda, 1, strided_b{b, 1, ldb}, c, ldc, accumulate, ws);
}

void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
             const float* b, std::size_t ldb, float* c, std::size_t ldc, bool accumulate,
             workspace& ws) {
    // A stored [k, m] row-major: element (i, p) = a[p * lda + i].
    gemm_strided(m, n, k, a, 1, lda, strided_b{b, ldb, 1}, c, ldc, accumulate, ws);
}

}  // namespace reduce
