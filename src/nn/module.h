// Layer/module abstraction for the training substrate.
//
// The framework is layer-based rather than tape-based: each module caches
// what it needs during forward() and consumes an upstream gradient in
// backward(). This keeps the hot loop allocation-light and makes the
// fault-masking semantics (FAP/FAT) explicit — a mask lives next to the
// parameter it gates.
//
// Training asks for less than backward() gives: nothing reads the input
// gradient of the model's first layer. backward_params() accumulates the
// parameter gradients without it — linear skips dY·W, conv2d skips the
// Wᵀ·dY column-gradient GEMM and its scatter — and leaves every dW/db bit
// for bit what backward() would have accumulated. The fault-aware trainer's
// step runs sequential::backward_params; sequential::backward still
// returns dX (gradient checks, tests).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace reduce {

/// A trainable tensor with its gradient and an optional fault mask.
///
/// When `mask` is non-empty it has the same shape as `value`; entries equal
/// to 0 mark weights mapped onto faulty (bypassed) PEs. Fault-aware training
/// keeps masked weights at exactly zero: apply_mask() after every optimizer
/// step and mask_grad() after every backward pass.
struct parameter {
    std::string name;
    tensor value;
    tensor grad;
    tensor mask;  ///< empty → no mask

    /// Zeroes the gradient buffer.
    void zero_grad() { grad.zero(); }

    /// True when a fault mask is attached.
    bool has_mask() const { return !mask.empty(); }

    /// Multiplies the value by the mask (no-op without a mask).
    void apply_mask();

    /// Multiplies the gradient by the mask (no-op without a mask).
    void mask_grad();

    /// Removes the mask (weights stay at their current values).
    void clear_mask() { mask = tensor(); }
};

/// Base class for all layers.
class module {
public:
    module() = default;
    module(const module&) = delete;
    module& operator=(const module&) = delete;
    virtual ~module() = default;

    /// Computes the layer output; caches whatever backward() needs.
    virtual tensor forward(const tensor& input) = 0;

    /// Propagates the upstream gradient; accumulates parameter gradients.
    /// Must be called after forward() on the same batch.
    virtual tensor backward(const tensor& grad_output) = 0;

    /// backward() for a caller that discards the input gradient: accumulates
    /// the same parameter gradients, bit for bit, and may skip the dX work.
    /// The default runs backward() and drops its result.
    virtual void backward_params(const tensor& grad_output) { (void)backward(grad_output); }

    /// Trainable parameters of this module (possibly empty).
    virtual std::vector<parameter*> parameters() { return {}; }

    /// Non-parameter persistent state that training mutates but
    /// restore_parameters does not touch — batch-norm running statistics.
    /// fault_state_guard snapshots and restores these around every masked
    /// episode, which is what extends the fleet/sweep bit-identical
    /// guarantee to normalizing models (forward/backward caches are not
    /// state and are excluded).
    virtual std::vector<tensor*> state_buffers() { return {}; }

    /// Deep copy of the module's persistent state: parameters (values,
    /// gradients, and any attached fault masks), configuration, RNG state of
    /// stochastic layers, and running statistics. Forward/backward caches are
    /// NOT copied — the clone behaves like a freshly constructed layer that
    /// happens to hold the same state. Enables per-worker model replicas in
    /// the parallel fleet executor.
    virtual std::unique_ptr<module> clone() const = 0;

    /// Switches train/eval behaviour (dropout, batch norm).
    virtual void set_training(bool training) { training_ = training; }

    /// Current mode.
    bool is_training() const { return training_; }

    /// Short layer name for diagnostics and serialization ("linear", ...).
    virtual std::string name() const = 0;

protected:
    bool training_ = true;
};

/// Owning container that runs layers in sequence: forward calls each
/// layer's forward in order, backward each layer's backward in reverse.
class sequential : public module {
public:
    /// Appends a layer; returns a reference for further configuration.
    module& add(std::unique_ptr<module> layer);

    /// Convenience: constructs the layer in place.
    template <typename Layer, typename... Args>
    Layer& emplace(Args&&... args) {
        auto layer = std::make_unique<Layer>(std::forward<Args>(args)...);
        Layer& ref = *layer;
        add(std::move(layer));
        return ref;
    }

    tensor forward(const tensor& input) override;
    tensor backward(const tensor& grad_output) override;
    /// backward() down to layer 1, then layer 0's backward_params: the
    /// model's input gradient is never formed.
    void backward_params(const tensor& grad_output) override;
    std::vector<parameter*> parameters() override;
    std::vector<tensor*> state_buffers() override;
    void set_training(bool training) override;
    std::unique_ptr<module> clone() const override;
    std::string name() const override { return "sequential"; }

    /// Number of child layers.
    std::size_t size() const { return layers_.size(); }

    /// Access to a child layer by position.
    module& layer(std::size_t index);

private:
    std::vector<std::unique_ptr<module>> layers_;
};

/// Deep-copies a model (see module::clone) with the concrete sequential type
/// preserved — the form every pipeline-facing API consumes.
std::unique_ptr<sequential> clone_model(const sequential& model);

/// Total number of scalar weights across parameters.
std::size_t parameter_count(const std::vector<parameter*>& params);

/// Applies every attached mask to its parameter value.
void apply_all_masks(const std::vector<parameter*>& params);

/// Zeroes gradients of all parameters.
void zero_all_grads(const std::vector<parameter*>& params);

}  // namespace reduce
