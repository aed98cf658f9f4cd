#include "nn/conv_layers.h"

#include "tensor/init.h"
#include "tensor/ops.h"
#include "util/error.h"

namespace reduce {

conv2d_layer::conv2d_layer(conv2d_spec spec, rng& gen) : spec_(spec) {
    REDUCE_CHECK(spec_.in_channels > 0 && spec_.out_channels > 0 && spec_.kernel_h > 0 &&
                     spec_.kernel_w > 0,
                 "conv2d spec has zero-sized field");
    weight_.name = "weight";
    weight_.value = tensor({spec_.out_channels, spec_.in_channels, spec_.kernel_h, spec_.kernel_w});
    weight_.grad = tensor(weight_.value.shape());
    he_normal(weight_.value, spec_.patch_size(), gen);
    bias_.name = "bias";
    bias_.value = tensor({spec_.out_channels});
    bias_.grad = tensor({spec_.out_channels});
}

tensor conv2d_layer::forward(const tensor& input) {
    // Only backward reads the cached input. Eval mode drops it, so a
    // backward after an eval-mode forward throws instead of reusing a
    // stale input.
    cached_input_ = training_ ? input : tensor{};
    return conv2d_forward(input, weight_.value, bias_.value, spec_);
}

tensor conv2d_layer::backward(const tensor& grad_output) {
    REDUCE_CHECK(cached_input_.numel() > 0, "conv2d backward before forward");
    // Accumulate straight into the parameter gradients — the whole-batch
    // lowered backward writes dW/db in place, so no per-call temporaries.
    tensor grad_input(cached_input_.shape());
    conv2d_backward_acc(cached_input_, weight_.value, grad_output, spec_, grad_input,
                        weight_.grad, bias_.grad);
    return grad_input;
}

void conv2d_layer::backward_params(const tensor& grad_output) {
    REDUCE_CHECK(cached_input_.numel() > 0, "conv2d backward before forward");
    conv2d_param_grads_acc(cached_input_, grad_output, spec_, weight_.grad, bias_.grad);
}

std::vector<parameter*> conv2d_layer::parameters() { return {&weight_, &bias_}; }

std::unique_ptr<module> conv2d_layer::clone() const {
    rng scratch(0);
    auto copy = std::make_unique<conv2d_layer>(spec_, scratch);
    copy->weight_ = weight_;
    copy->bias_ = bias_;
    copy->training_ = training_;
    return copy;
}

max_pool2d_layer::max_pool2d_layer(pool2d_spec spec) : spec_(spec) {
    REDUCE_CHECK(spec_.kernel > 0 && spec_.stride > 0, "pool spec must be positive");
}

tensor max_pool2d_layer::forward(const tensor& input) {
    // Only backward reads the argmax. Eval mode neither records nor keeps
    // one, so a backward after an eval-mode forward throws instead of
    // routing through a stale argmax.
    cached_input_shape_ = input.shape();
    if (!training_) {
        cached_argmax_.clear();
        return max_pool2d_values(input, spec_);
    }
    pool2d_result result = max_pool2d_forward(input, spec_);
    cached_argmax_ = std::move(result.argmax);
    return std::move(result.output);
}

tensor max_pool2d_layer::backward(const tensor& grad_output) {
    REDUCE_CHECK(!cached_argmax_.empty(), "max_pool2d backward before forward");
    return max_pool2d_backward(grad_output, cached_argmax_, cached_input_shape_);
}

std::unique_ptr<module> max_pool2d_layer::clone() const {
    auto copy = std::make_unique<max_pool2d_layer>(spec_);
    copy->training_ = training_;
    return copy;
}

}  // namespace reduce
