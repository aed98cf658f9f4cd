#include "tensor/ops.h"

#include <cmath>

#include "tensor/gemm.h"
#include "tensor/workspace.h"
#include "util/error.h"

namespace reduce {

namespace {

void check_same_shape(const tensor& a, const tensor& b, const char* op) {
    if (a.shape() != b.shape()) {
        throw shape_error(std::string(op) + ": shape mismatch " + a.describe() + " vs " +
                          b.describe());
    }
}

void check_rank2(const tensor& a, const char* op) {
    if (a.dim() != 2) {
        throw shape_error(std::string(op) + ": expected rank-2 tensor, got " + a.describe());
    }
}

}  // namespace

tensor add(const tensor& a, const tensor& b) {
    check_same_shape(a, b, "add");
    tensor c = a;
    float* out = c.raw();
    const float* rhs = b.raw();
    for (std::size_t i = 0, n = c.numel(); i < n; ++i) { out[i] += rhs[i]; }
    return c;
}

tensor sub(const tensor& a, const tensor& b) {
    check_same_shape(a, b, "sub");
    tensor c = a;
    float* out = c.raw();
    const float* rhs = b.raw();
    for (std::size_t i = 0, n = c.numel(); i < n; ++i) { out[i] -= rhs[i]; }
    return c;
}

tensor mul(const tensor& a, const tensor& b) {
    check_same_shape(a, b, "mul");
    tensor c = a;
    mul_inplace(c, b);
    return c;
}

tensor scale(const tensor& a, float s) {
    tensor c = a;
    scale_inplace(c, s);
    return c;
}

void mul_inplace(tensor& a, const tensor& b) {
    check_same_shape(a, b, "mul_inplace");
    float* out = a.raw();
    const float* rhs = b.raw();
    for (std::size_t i = 0, n = a.numel(); i < n; ++i) { out[i] *= rhs[i]; }
}

void scale_inplace(tensor& a, float s) {
    float* out = a.raw();
    for (std::size_t i = 0, n = a.numel(); i < n; ++i) { out[i] *= s; }
}

tensor matmul(const tensor& a, const tensor& b) {
    check_rank2(a, "matmul");
    check_rank2(b, "matmul");
    const std::size_t m = a.extent(0);
    const std::size_t k = a.extent(1);
    REDUCE_CHECK(b.extent(0) == k,
                 "matmul inner dimensions differ: " << a.describe() << " vs " << b.describe());
    const std::size_t n = b.extent(1);
    tensor c({m, n});
    gemm_nn(m, n, k, a.raw(), k, b.raw(), n, c.raw(), n, /*accumulate=*/false,
            workspace::local());
    return c;
}

tensor matmul_nt(const tensor& a, const tensor& b) {
    check_rank2(a, "matmul_nt");
    check_rank2(b, "matmul_nt");
    const std::size_t m = a.extent(0);
    const std::size_t k = a.extent(1);
    REDUCE_CHECK(b.extent(1) == k,
                 "matmul_nt inner dimensions differ: " << a.describe() << " vs "
                                                       << b.describe());
    const std::size_t n = b.extent(0);
    tensor c({m, n});
    gemm_nt(m, n, k, a.raw(), k, b.raw(), k, c.raw(), n, /*accumulate=*/false,
            workspace::local());
    return c;
}

tensor matmul_tn(const tensor& a, const tensor& b) {
    check_rank2(a, "matmul_tn");
    check_rank2(b, "matmul_tn");
    const std::size_t k = a.extent(0);
    const std::size_t m = a.extent(1);
    REDUCE_CHECK(b.extent(0) == k,
                 "matmul_tn inner dimensions differ: " << a.describe() << " vs "
                                                       << b.describe());
    const std::size_t n = b.extent(1);
    tensor c({m, n});
    gemm_tn(m, n, k, a.raw(), m, b.raw(), n, c.raw(), n, /*accumulate=*/false,
            workspace::local());
    return c;
}

void matmul_tn_acc(const tensor& a, const tensor& b, tensor& c) {
    check_rank2(a, "matmul_tn_acc");
    check_rank2(b, "matmul_tn_acc");
    const std::size_t k = a.extent(0);
    const std::size_t m = a.extent(1);
    REDUCE_CHECK(b.extent(0) == k,
                 "matmul_tn_acc inner dimensions differ: " << a.describe() << " vs "
                                                           << b.describe());
    const std::size_t n = b.extent(1);
    REDUCE_CHECK(c.dim() == 2 && c.extent(0) == m && c.extent(1) == n,
                 "matmul_tn_acc output " << c.describe() << " does not match [" << m << ", "
                                         << n << "]");
    gemm_tn(m, n, k, a.raw(), m, b.raw(), n, c.raw(), n, /*accumulate=*/true,
            workspace::local());
}

void add_row_bias_inplace(tensor& a, const tensor& bias) {
    check_rank2(a, "add_row_bias_inplace");
    REDUCE_CHECK(bias.dim() == 1 && bias.extent(0) == a.extent(1),
                 "bias " << bias.describe() << " does not match rows of " << a.describe());
    const std::size_t m = a.extent(0);
    const std::size_t n = a.extent(1);
    float* pa = a.raw();
    const float* pb = bias.raw();
    for (std::size_t i = 0; i < m; ++i) {
        float* row = pa + i * n;
        for (std::size_t j = 0; j < n; ++j) { row[j] += pb[j]; }
    }
}

void column_sums_acc(const tensor& a, tensor& sums) {
    check_rank2(a, "column_sums_acc");
    const std::size_t m = a.extent(0);
    const std::size_t n = a.extent(1);
    REDUCE_CHECK(sums.dim() == 1 && sums.extent(0) == n,
                 "column_sums_acc output " << sums.describe() << " does not match columns of "
                                           << a.describe());
    const float* pa = a.raw();
    float* ps = sums.raw();
    // Each output element's accumulation chain runs over rows ascending.
    for (std::size_t i = 0; i < m; ++i) {
        const float* row = pa + i * n;
        for (std::size_t j = 0; j < n; ++j) { ps[j] += row[j]; }
    }
}

tensor softmax_rows(const tensor& a) {
    check_rank2(a, "softmax_rows");
    const std::size_t m = a.extent(0);
    const std::size_t n = a.extent(1);
    REDUCE_CHECK(n > 0, "softmax over empty rows");
    tensor out({m, n});
    const float* pa = a.raw();
    float* po = out.raw();
    for (std::size_t i = 0; i < m; ++i) {
        const float* row = pa + i * n;
        float* orow = po + i * n;
        float max_logit = row[0];
        for (std::size_t j = 1; j < n; ++j) { max_logit = std::max(max_logit, row[j]); }
        float denom = 0.0f;
        for (std::size_t j = 0; j < n; ++j) {
            orow[j] = std::exp(row[j] - max_logit);
            denom += orow[j];
        }
        const float inv = 1.0f / denom;
        for (std::size_t j = 0; j < n; ++j) { orow[j] *= inv; }
    }
    return out;
}

tensor log_softmax_rows(const tensor& a) {
    check_rank2(a, "log_softmax_rows");
    const std::size_t m = a.extent(0);
    const std::size_t n = a.extent(1);
    REDUCE_CHECK(n > 0, "log_softmax over empty rows");
    tensor out({m, n});
    const float* pa = a.raw();
    float* po = out.raw();
    for (std::size_t i = 0; i < m; ++i) {
        const float* row = pa + i * n;
        float* orow = po + i * n;
        float max_logit = row[0];
        for (std::size_t j = 1; j < n; ++j) { max_logit = std::max(max_logit, row[j]); }
        float denom = 0.0f;
        for (std::size_t j = 0; j < n; ++j) { denom += std::exp(row[j] - max_logit); }
        const float log_denom = std::log(denom) + max_logit;
        for (std::size_t j = 0; j < n; ++j) { orow[j] = row[j] - log_denom; }
    }
    return out;
}

std::vector<std::size_t> argmax_rows(const tensor& a) {
    check_rank2(a, "argmax_rows");
    const std::size_t m = a.extent(0);
    const std::size_t n = a.extent(1);
    REDUCE_CHECK(n > 0, "argmax over empty rows");
    std::vector<std::size_t> result(m, 0);
    const float* pa = a.raw();
    for (std::size_t i = 0; i < m; ++i) {
        const float* row = pa + i * n;
        std::size_t best = 0;
        for (std::size_t j = 1; j < n; ++j) {
            if (row[j] > row[best]) { best = j; }
        }
        result[i] = best;
    }
    return result;
}

tensor relu(const tensor& a) {
    tensor out = a;
    float* po = out.raw();
    for (std::size_t i = 0, n = out.numel(); i < n; ++i) {
        po[i] = po[i] > 0.0f ? po[i] : 0.0f;
    }
    return out;
}

tensor relu_backward(const tensor& grad_out, const tensor& input) {
    check_same_shape(grad_out, input, "relu_backward");
    tensor grad_in = grad_out;
    float* pg = grad_in.raw();
    const float* px = input.raw();
    // A select, not a branch, so the loop vectorizes; NaN inputs keep their
    // gradient (NaN <= 0 is false) and both zeros gate it.
    for (std::size_t i = 0, n = grad_in.numel(); i < n; ++i) {
        pg[i] = px[i] <= 0.0f ? 0.0f : pg[i];
    }
    return grad_in;
}

double squared_norm(const tensor& a) {
    double acc = 0.0;
    const float* pa = a.raw();
    for (std::size_t i = 0; i < a.numel(); ++i) { acc += static_cast<double>(pa[i]) * pa[i]; }
    return acc;
}

double l2_norm(const tensor& a) { return std::sqrt(squared_norm(a)); }

}  // namespace reduce
