// Tensor operations used by the NN layers and the accelerator model.
//
// Everything here is a free function over contiguous tensors; all shape
// mismatches throw shape_error. The matmul family — the dominant cost of
// fault-aware retraining on the single-core experiment machine — runs on
// the cache-blocked, register-tiled kernels of tensor/gemm.h with packing
// scratch from the thread-local workspace arena (tensor/workspace.h), so a
// steady-state training loop performs no per-call allocation beyond the
// returned output tensor.
#pragma once

#include "tensor/tensor.h"

namespace reduce {

// ---- elementwise -----------------------------------------------------------

/// c = a + b (same shape).
tensor add(const tensor& a, const tensor& b);

/// c = a - b (same shape).
tensor sub(const tensor& a, const tensor& b);

/// c = a * b elementwise (same shape).
tensor mul(const tensor& a, const tensor& b);

/// c = a * s.
tensor scale(const tensor& a, float s);

/// a *= b elementwise in place (same shape); used to apply fault masks.
void mul_inplace(tensor& a, const tensor& b);

/// a *= s in place.
void scale_inplace(tensor& a, float s);

// ---- matmul family ----------------------------------------------------------

/// C[m,n] = A[m,k] · B[k,n].
tensor matmul(const tensor& a, const tensor& b);

/// C[m,n] = A[m,k] · Bᵀ where B is [n,k]. Used for forward passes with
/// row-major weight matrices stored as [out, in].
tensor matmul_nt(const tensor& a, const tensor& b);

/// C[m,n] = Aᵀ · B where A is [k,m], B is [k,n]. Used for weight gradients.
tensor matmul_tn(const tensor& a, const tensor& b);

/// c += Aᵀ · B with shapes as in matmul_tn. The gradient-accumulation
/// primitive: writes straight into a parameter's grad tensor instead of
/// materializing a temporary product.
void matmul_tn_acc(const tensor& a, const tensor& b, tensor& c);

// ---- rows (batch) operations -------------------------------------------------

/// Adds `bias` (shape [n]) to every row of `a` (shape [m,n]) in place.
void add_row_bias_inplace(tensor& a, const tensor& bias);

/// sums += column sums of `a` (shape [n]); the bias-gradient reduction.
void column_sums_acc(const tensor& a, tensor& sums);

/// Row-wise softmax of a [m,n] tensor (numerically stabilized).
tensor softmax_rows(const tensor& a);

/// Row-wise log-softmax of a [m,n] tensor (numerically stabilized).
tensor log_softmax_rows(const tensor& a);

/// Row-wise argmax of a [m,n] tensor → vector of n-range indices.
std::vector<std::size_t> argmax_rows(const tensor& a);

// ---- activations -------------------------------------------------------------

/// ReLU forward: max(x, 0) elementwise.
tensor relu(const tensor& a);

/// ReLU backward: grad where input > 0, else 0.
tensor relu_backward(const tensor& grad_out, const tensor& input);

// ---- reductions / norms --------------------------------------------------------

/// Sum of squares of all elements.
double squared_norm(const tensor& a);

/// Global L2 norm.
double l2_norm(const tensor& a);

}  // namespace reduce
