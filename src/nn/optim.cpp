#include "nn/optim.h"

#include <cmath>

#include "tensor/ops.h"
#include "util/error.h"

namespace reduce {

sgd::sgd(std::vector<parameter*> params, config cfg) : params_(std::move(params)), cfg_(cfg) {
    REDUCE_CHECK(!params_.empty(), "optimizer needs at least one parameter");
    for (const parameter* p : params_) {
        REDUCE_CHECK(p != nullptr, "optimizer received a null parameter");
        REDUCE_CHECK(p->value.shape() == p->grad.shape(),
                     "parameter '" << p->name << "' grad shape mismatch");
    }
    REDUCE_CHECK(cfg_.momentum >= 0.0 && cfg_.momentum < 1.0,
                 "momentum must be in [0,1), got " << cfg_.momentum);
    REDUCE_CHECK(cfg_.weight_decay >= 0.0, "weight decay must be non-negative");
    set_learning_rate(cfg_.learning_rate);
    if (cfg_.momentum > 0.0) {
        velocity_.reserve(params_.size());
        for (const parameter* p : params_) { velocity_.emplace_back(p->value.shape()); }
    }
}

void sgd::zero_grad() {
    for (parameter* p : params_) { p->zero_grad(); }
}

void sgd::set_learning_rate(double lr) {
    REDUCE_CHECK(lr >= 0.0, "learning rate must be non-negative, got " << lr);
    lr_ = lr;
}

void sgd::step() {
    const float lr = static_cast<float>(lr_);
    const float mu = static_cast<float>(cfg_.momentum);
    const float wd = static_cast<float>(cfg_.weight_decay);
    for (std::size_t k = 0; k < params_.size(); ++k) {
        parameter& p = *params_[k];
        p.mask_grad();
        float* w = p.value.raw();
        const float* g = p.grad.raw();
        if (cfg_.momentum > 0.0) {
            float* v = velocity_[k].raw();
            for (std::size_t i = 0, n = p.value.numel(); i < n; ++i) {
                v[i] = mu * v[i] + (g[i] + wd * w[i]);
                w[i] -= lr * v[i];
            }
        } else {
            for (std::size_t i = 0, n = p.value.numel(); i < n; ++i) {
                w[i] -= lr * (g[i] + wd * w[i]);
            }
        }
        p.apply_mask();
    }
}

optimizer_state sgd::save_state() const { return {velocity_}; }

void sgd::restore_state(const optimizer_state& state) {
    REDUCE_CHECK(state.buffers.size() == velocity_.size(),
                 "optimizer state snapshot has " << state.buffers.size()
                                                 << " buffers, expected " << velocity_.size());
    for (std::size_t k = 0; k < velocity_.size(); ++k) {
        REDUCE_CHECK(state.buffers[k].shape() == velocity_[k].shape(),
                     "optimizer state buffer " << k << " shape mismatch");
    }
    velocity_ = state.buffers;
}

void sgd::mask_state() {
    // Masks are {0,1} tensors, so the multiply is exact and bit-reproducible.
    // With momentum 0 there is no velocity to mask.
    for (std::size_t k = 0; k < velocity_.size(); ++k) {
        const parameter& p = *params_[k];
        if (!p.has_mask()) { continue; }
        float* v = velocity_[k].raw();
        const float* m = p.mask.raw();
        for (std::size_t i = 0, n = p.value.numel(); i < n; ++i) { v[i] *= m[i]; }
    }
}

double clip_grad_norm(const std::vector<parameter*>& params, double max_norm) {
    REDUCE_CHECK(max_norm > 0.0, "max_norm must be positive");
    double total_sq = 0.0;
    for (const parameter* p : params) { total_sq += squared_norm(p->grad); }
    const double total = std::sqrt(total_sq);
    if (total > max_norm) {
        const float scale = static_cast<float>(max_norm / total);
        for (parameter* p : params) { scale_inplace(p->grad, scale); }
    }
    return total;
}

}  // namespace reduce
