// Convolution and pooling layers.
#pragma once

#include "nn/module.h"
#include "tensor/conv.h"
#include "util/rng.h"

namespace reduce {

/// 2D convolution layer over [N, C, H, W] batches.
///
/// The weight tensor [out_c, in_c, kh, kw] is viewed as the GEMM matrix
/// [out_c, in_c*kh*kw] when mapped onto the systolic array; fault masks are
/// attached to the 4-D parameter and share its storage order.
class conv2d_layer : public module {
public:
    conv2d_layer(conv2d_spec spec, rng& gen);

    tensor forward(const tensor& input) override;
    tensor backward(const tensor& grad_output) override;
    /// dW and db only (conv2d_param_grads_acc): no grad_input.
    void backward_params(const tensor& grad_output) override;
    std::vector<parameter*> parameters() override;
    std::unique_ptr<module> clone() const override;
    std::string name() const override { return "conv2d"; }

    const conv2d_spec& spec() const { return spec_; }
    parameter& weight() { return weight_; }
    parameter& bias() { return bias_; }

private:
    conv2d_spec spec_;
    parameter weight_;
    parameter bias_;
    tensor cached_input_;
};

/// Max pooling layer. A training-mode forward records the argmax the
/// backward routes through; an eval-mode forward records none.
class max_pool2d_layer : public module {
public:
    explicit max_pool2d_layer(pool2d_spec spec);

    tensor forward(const tensor& input) override;
    tensor backward(const tensor& grad_output) override;
    std::unique_ptr<module> clone() const override;
    std::string name() const override { return "max_pool2d"; }

    const pool2d_spec& spec() const { return spec_; }

private:
    pool2d_spec spec_;
    shape_t cached_input_shape_;
    std::vector<std::size_t> cached_argmax_;
};

}  // namespace reduce
