// Cache-blocked single-precision GEMM kernels on raw row-major buffers.
//
// This is the compute core under the tensor-level matmul family and the
// whole-batch conv lowering. The design is the classic three-level blocking
// (BLIS-style) tuned for the single-core experiment machine:
//
//   * K is split into KC-deep panels so a packed B panel (KC x NC floats)
//     stays resident in L2 while a packed A block (MC x KC) streams through;
//   * inside a block, an MR x NR register micro-kernel accumulates a tile
//     in GCC/clang generic-vector registers (REDUCE_NATIVE widens them) and
//     writes a full tile straight from them into C; only partial edge
//     tiles go through a scratch tile;
//   * both operands are packed into strip-major layouts, which is also what
//     makes one micro-kernel serve every variant — the packing routines
//     absorb the operand layouts. There is one driver, templated on its B
//     packer: a strided packer (nn/nt/tn) or an offset gather
//     (gemm_nn_gather), which fills the packed strips of an implicit
//     operand — a convolution's patch matrix — straight from its source
//     without ever materializing it.
//
// Determinism: for a fixed (m, n, k) the accumulation order of every output
// element is fixed — KC panels in ascending order, p ascending within a
// panel — independent of input values or workspace state. There is
// deliberately no data-dependent shortcut (the seed kernel's
// `if (a == 0) continue;` made runtime input-dependent and silently dropped
// NaN/Inf propagation from B).
//
// Every call runs serially on the calling thread; parallelism lives one
// level up, in the episode workers (core/fat_trainer.h: run_episodes).
#pragma once

#include <cstddef>

namespace reduce {

class workspace;

/// Optional k-row subset for gemm_nn_gather: the compact B operand holds only
/// `count` rows, row j of B standing for row `rows[j]` of a conceptual
/// `original_k`-row operand whose missing rows are exact zeros (the
/// structurally-zero padding taps of a lowered convolution). `rows` must be
/// strictly ascending and < original_k.
///
/// The driver keeps the KC panel decomposition of the ORIGINAL k, so each
/// output element's accumulation chain is the full-k chain with the
/// zero-product terms removed. Adding an exact ±0 product to the kernel's
/// accumulator (which is never -0: it starts at +0, and IEEE round-to-
/// nearest yields +0 for every zero-valued sum) cannot change it, so the
/// result is bit-identical to the full-k GEMM whenever A's entries in the
/// missing columns are finite. The conv drivers check that and pass the
/// full operand otherwise (tensor/conv.h).
struct gemm_k_subset {
    const std::size_t* rows = nullptr;
    std::size_t count = 0;
    std::size_t original_k = 0;
};

/// C[m,n] (+)= A[m,k] · B[k,n]. `lda/ldb/ldc` are row strides of the
/// row-major operands; pass `accumulate = false` to overwrite C.
/// Packing scratch comes from `ws` (no allocation after warm-up).
void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
             const float* b, std::size_t ldb, float* c, std::size_t ldc, bool accumulate,
             workspace& ws);

/// A B operand read through two offset tables: element (p, j) is
/// base[row_off[p] + col_off[j]]. `row_off` has one entry per B row (per
/// COMPACT row under a gemm_k_subset), `col_off` one per B column. The
/// conv drivers describe their patch matrix this way over a zero-bordered
/// copy of the images (tensor/conv.h), and its transpose by swapping the
/// two tables.
struct gemm_gather {
    const float* base = nullptr;
    const std::size_t* row_off = nullptr;
    const std::size_t* col_off = nullptr;
};

/// C[m,n] (+)= A[m,k] · B[k,n] with B gathered as `b` describes. The same
/// driver and accumulation order as gemm_nn: the result is bit-identical
/// to gemm_nn over the materialized B. With `subset` (original_k == k), B
/// is the compact operand gemm_k_subset describes and A stays [m, k].
void gemm_nn_gather(std::size_t m, std::size_t n, std::size_t k, const float* a,
                    std::size_t lda, const gemm_gather& b, float* c, std::size_t ldc,
                    bool accumulate, workspace& ws, const gemm_k_subset* subset = nullptr);

/// C[m,n] (+)= A[m,k] · Bᵀ where B is stored row-major as [n,k].
void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
             const float* b, std::size_t ldb, float* c, std::size_t ldc, bool accumulate,
             workspace& ws);

/// C[m,n] (+)= Aᵀ · B where A is stored row-major as [k,m], B as [k,n].
void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
             const float* b, std::size_t ldb, float* c, std::size_t ldc, bool accumulate,
             workspace& ws);

}  // namespace reduce
