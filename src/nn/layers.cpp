#include "nn/layers.h"

#include "tensor/init.h"
#include "tensor/ops.h"
#include "util/error.h"

namespace reduce {

linear::linear(std::size_t in_features, std::size_t out_features, rng& gen)
    : in_features_(in_features), out_features_(out_features) {
    REDUCE_CHECK(in_features > 0 && out_features > 0,
                 "linear layer dims must be positive: " << in_features << "x" << out_features);
    weight_.name = "weight";
    weight_.value = tensor({out_features, in_features});
    weight_.grad = tensor({out_features, in_features});
    he_normal(weight_.value, in_features, gen);
    bias_.name = "bias";
    bias_.value = tensor({out_features});
    bias_.grad = tensor({out_features});
}

tensor linear::forward(const tensor& input) {
    REDUCE_CHECK(input.dim() == 2 && input.extent(1) == in_features_,
                 "linear expects [N," << in_features_ << "], got " << input.describe());
    // Only backward reads the cached input. Eval mode drops it, so a
    // backward after an eval-mode forward throws instead of reusing a
    // stale input.
    cached_input_ = training_ ? input : tensor{};
    tensor output = matmul_nt(input, weight_.value);  // [N, out]
    add_row_bias_inplace(output, bias_.value);
    return output;
}

tensor linear::backward(const tensor& grad_output) {
    backward_params(grad_output);
    return matmul(grad_output, weight_.value);  // dX = dY · W
}

void linear::backward_params(const tensor& grad_output) {
    REDUCE_CHECK(grad_output.dim() == 2 && grad_output.extent(1) == out_features_,
                 "linear backward expects [N," << out_features_ << "], got "
                                               << grad_output.describe());
    REDUCE_CHECK(cached_input_.numel() > 0, "linear backward before forward");
    // dW += dYᵀ · X;  db += column sums of dY. The accumulating forms write
    // the parameter gradients in place (no temporaries).
    matmul_tn_acc(grad_output, cached_input_, weight_.grad);
    column_sums_acc(grad_output, bias_.grad);
}

std::vector<parameter*> linear::parameters() { return {&weight_, &bias_}; }

std::unique_ptr<module> linear::clone() const {
    // Construct through the public ctor (the throwaway init is overwritten by
    // the state copy below, masks included).
    rng scratch(0);
    auto copy = std::make_unique<linear>(in_features_, out_features_, scratch);
    copy->weight_ = weight_;
    copy->bias_ = bias_;
    copy->training_ = training_;
    return copy;
}

tensor relu_layer::forward(const tensor& input) {
    // Only backward reads the cached input. Eval mode drops it, so a
    // backward after an eval-mode forward throws instead of reusing a
    // stale input.
    cached_input_ = training_ ? input : tensor{};
    return relu(input);
}

tensor relu_layer::backward(const tensor& grad_output) {
    REDUCE_CHECK(cached_input_.numel() > 0, "relu backward before forward");
    return relu_backward(grad_output, cached_input_);
}

std::unique_ptr<module> relu_layer::clone() const {
    auto copy = std::make_unique<relu_layer>();
    copy->training_ = training_;
    return copy;
}

tensor flatten::forward(const tensor& input) {
    REDUCE_CHECK(input.dim() >= 2, "flatten expects at least rank-2, got " << input.describe());
    cached_shape_ = input.shape();
    const std::size_t batch = input.extent(0);
    return input.reshaped({batch, input.numel() / batch});
}

tensor flatten::backward(const tensor& grad_output) {
    REDUCE_CHECK(!cached_shape_.empty(), "flatten backward before forward");
    return grad_output.reshaped(cached_shape_);
}

std::unique_ptr<module> flatten::clone() const {
    auto copy = std::make_unique<flatten>();
    copy->training_ = training_;
    return copy;
}

dropout::dropout(double p, std::uint64_t seed) : p_(p), gen_(seed) {
    REDUCE_CHECK(p >= 0.0 && p < 1.0, "dropout probability must be in [0,1), got " << p);
}

tensor dropout::forward(const tensor& input) {
    if (!training_ || p_ == 0.0) {
        kept_scale_ = tensor();
        return input;
    }
    kept_scale_ = tensor(input.shape());
    const float keep_scale = static_cast<float>(1.0 / (1.0 - p_));
    float* mask = kept_scale_.raw();
    for (std::size_t i = 0; i < kept_scale_.numel(); ++i) {
        mask[i] = gen_.bernoulli(p_) ? 0.0f : keep_scale;
    }
    return mul(input, kept_scale_);
}

tensor dropout::backward(const tensor& grad_output) {
    if (kept_scale_.empty()) { return grad_output; }
    return mul(grad_output, kept_scale_);
}

std::unique_ptr<module> dropout::clone() const {
    auto copy = std::make_unique<dropout>(p_, 0);
    copy->gen_ = gen_;  // clone continues the original's random stream
    copy->training_ = training_;
    return copy;
}

}  // namespace reduce
