// The retraining optimizer.
//
// The optimizer is mask-aware: when a parameter carries a fault mask, the
// gradient is masked before the update and the value is re-masked after it,
// so weights mapped to bypassed PEs stay exactly zero throughout fault-aware
// retraining (the FAP+T invariant from Zhang et al., VTS'18).
#pragma once

#include <vector>

#include "nn/module.h"

namespace reduce {

/// Deep copy of the optimizer's internal state, for checkpoint/rollback in
/// event-driven training (fault timelines): one velocity buffer per
/// parameter, or none when momentum is off.
struct optimizer_state {
    std::vector<tensor> buffers;
};

/// SGD with optional heavy-ball momentum and L2 weight decay over a fixed
/// parameter set.
class sgd {
public:
    struct config {
        double learning_rate = 0.01;
        double momentum = 0.0;       ///< 0 disables the velocity buffer
        double weight_decay = 0.0;   ///< L2 coefficient added to the gradient
    };

    sgd(std::vector<parameter*> params, config cfg);
    sgd(const sgd&) = delete;
    sgd& operator=(const sgd&) = delete;

    /// Applies one update from the accumulated gradients.
    void step();

    /// Zeroes all gradients.
    void zero_grad();

    /// Current learning rate.
    double learning_rate() const { return lr_; }

    /// Sets the learning rate (divergence rollback halves it).
    void set_learning_rate(double lr);

    /// The parameters this optimizer updates.
    const std::vector<parameter*>& params() const { return params_; }

    /// Snapshot of the velocity buffers.
    optimizer_state save_state() const;

    /// Restores a snapshot taken from the SAME optimizer configuration
    /// (shape-checked); the inverse of save_state().
    void restore_state(const optimizer_state& state);

    /// Zeroes the velocity wherever the owning parameter's fault mask is
    /// zero. Called when a timeline event re-masks weights mid-run: a
    /// newly pruned weight must lose its momentum too, or the next step
    /// would push it off zero before apply_mask clamps it back — changing
    /// every unmasked weight through shared reductions downstream.
    void mask_state();

private:
    std::vector<parameter*> params_;
    config cfg_;
    double lr_ = 0.01;
    std::vector<tensor> velocity_;
};

/// Global gradient-norm clipping; returns the pre-clip norm.
double clip_grad_norm(const std::vector<parameter*>& params, double max_norm);

}  // namespace reduce
