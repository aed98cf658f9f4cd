// Dense and shape/activation layers.
#pragma once

#include <cstdint>

#include "nn/module.h"
#include "util/rng.h"

namespace reduce {

/// Fully connected layer: y = x · Wᵀ + b with W stored as [out, in].
///
/// The [out, in] layout matches the weight-stationary systolic mapping used
/// by the accelerator model (column ↔ output neuron, row ↔ input), so fault
/// masks computed by the fault module index this matrix directly.
class linear : public module {
public:
    /// Initializes W with He-normal (ReLU default) and b with zeros.
    linear(std::size_t in_features, std::size_t out_features, rng& gen);

    tensor forward(const tensor& input) override;
    tensor backward(const tensor& grad_output) override;
    /// dW and db only: skips dX = dY · W.
    void backward_params(const tensor& grad_output) override;
    std::vector<parameter*> parameters() override;
    std::unique_ptr<module> clone() const override;
    std::string name() const override { return "linear"; }

    std::size_t in_features() const { return in_features_; }
    std::size_t out_features() const { return out_features_; }

    /// Weight parameter [out, in]; masks are attached here by FAP.
    parameter& weight() { return weight_; }
    parameter& bias() { return bias_; }

private:
    std::size_t in_features_;
    std::size_t out_features_;
    parameter weight_;
    parameter bias_;
    tensor cached_input_;
};

/// Elementwise ReLU.
class relu_layer : public module {
public:
    tensor forward(const tensor& input) override;
    tensor backward(const tensor& grad_output) override;
    std::unique_ptr<module> clone() const override;
    std::string name() const override { return "relu"; }

private:
    tensor cached_input_;
};

/// Flattens [N, ...] to [N, rest].
class flatten : public module {
public:
    tensor forward(const tensor& input) override;
    tensor backward(const tensor& grad_output) override;
    std::unique_ptr<module> clone() const override;
    std::string name() const override { return "flatten"; }

private:
    shape_t cached_shape_;
};

/// Inverted dropout: scales kept activations by 1/(1-p) at train time,
/// identity at eval time. Deterministic per-construction seed.
class dropout : public module {
public:
    /// p is the drop probability in [0, 1).
    dropout(double p, std::uint64_t seed);

    tensor forward(const tensor& input) override;
    tensor backward(const tensor& grad_output) override;
    std::unique_ptr<module> clone() const override;
    std::string name() const override { return "dropout"; }

    /// Restarts the layer's random stream from `seed`. Per-episode
    /// reseeding (reseed_stochastic_layers) is what makes retraining runs
    /// with dropout independent of worker history — and therefore of thread
    /// count — in the parallel fleet/sweep engines.
    void reseed(std::uint64_t seed) { gen_ = rng(seed); }

private:
    double p_;
    rng gen_;
    tensor kept_scale_;  ///< per-element multiplier used in the last forward
};

}  // namespace reduce
