#include "nn/optim.h"

#include <cmath>
#include <numbers>

#include "tensor/ops.h"
#include "util/error.h"

namespace reduce {

optimizer::optimizer(std::vector<parameter*> params) : params_(std::move(params)) {
    REDUCE_CHECK(!params_.empty(), "optimizer needs at least one parameter");
    for (const parameter* p : params_) {
        REDUCE_CHECK(p != nullptr, "optimizer received a null parameter");
        REDUCE_CHECK(p->value.shape() == p->grad.shape(),
                     "parameter '" << p->name << "' grad shape mismatch");
    }
}

void optimizer::zero_grad() {
    for (parameter* p : params_) { p->zero_grad(); }
}

void optimizer::set_learning_rate(double lr) {
    REDUCE_CHECK(lr >= 0.0, "learning rate must be non-negative, got " << lr);
    lr_ = lr;
}

void optimizer::restore_state(const optimizer_state& state) {
    REDUCE_CHECK(state.buffers.empty() && state.step_count == 0,
                 "optimizer has no internal state to restore into");
}

namespace {

// Zeroes each state buffer where its parameter's mask is zero. Masks are
// {0,1} tensors, so multiply is exact and bit-reproducible.
void mask_buffers_against_params(const std::vector<parameter*>& params,
                                 std::vector<tensor>* buffers) {
    for (std::size_t k = 0; k < params.size(); ++k) {
        const parameter& p = *params[k];
        if (!p.has_mask()) { continue; }
        float* b = (*buffers)[k].raw();
        const float* m = p.mask.raw();
        for (std::size_t i = 0, n = p.value.numel(); i < n; ++i) { b[i] *= m[i]; }
    }
}

void check_state_shapes(const std::vector<tensor>& buffers,
                        const std::vector<tensor>& saved) {
    REDUCE_CHECK(saved.size() == buffers.size(),
                 "optimizer state snapshot has " << saved.size() << " buffers, expected "
                                                 << buffers.size());
    for (std::size_t k = 0; k < buffers.size(); ++k) {
        REDUCE_CHECK(saved[k].shape() == buffers[k].shape(),
                     "optimizer state buffer " << k << " shape mismatch");
    }
}

}  // namespace

sgd::sgd(std::vector<parameter*> params, config cfg) : optimizer(std::move(params)), cfg_(cfg) {
    REDUCE_CHECK(cfg_.momentum >= 0.0 && cfg_.momentum < 1.0,
                 "momentum must be in [0,1), got " << cfg_.momentum);
    REDUCE_CHECK(cfg_.weight_decay >= 0.0, "weight decay must be non-negative");
    set_learning_rate(cfg_.learning_rate);
    if (cfg_.momentum > 0.0) {
        velocity_.reserve(params_.size());
        for (const parameter* p : params_) { velocity_.emplace_back(p->value.shape()); }
    }
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
            const bool nesterov = cfg_.nesterov;
            for (std::size_t i = 0, n = p.value.numel(); i < n; ++i) {
                const float grad_i = g[i] + wd * w[i];
                v[i] = mu * v[i] + grad_i;
                const float update = nesterov ? grad_i + mu * v[i] : v[i];
                w[i] -= lr * update;
            }
        } else {
            for (std::size_t i = 0, n = p.value.numel(); i < n; ++i) {
                w[i] -= lr * (g[i] + wd * w[i]);
            }
        }
        p.apply_mask();
    }
}

optimizer_state sgd::save_state() const {
    optimizer_state state;
    state.buffers = velocity_;
    return state;
}

void sgd::restore_state(const optimizer_state& state) {
    check_state_shapes(velocity_, state.buffers);
    REDUCE_CHECK(state.step_count == 0, "sgd snapshots carry no step counter");
    velocity_ = state.buffers;
}

void sgd::mask_state() {
    if (velocity_.empty()) { return; }  // momentum 0: no state to mask
    mask_buffers_against_params(params_, &velocity_);
}

adam::adam(std::vector<parameter*> params, config cfg) : optimizer(std::move(params)), cfg_(cfg) {
    REDUCE_CHECK(cfg_.beta1 >= 0.0 && cfg_.beta1 < 1.0, "beta1 must be in [0,1)");
    REDUCE_CHECK(cfg_.beta2 >= 0.0 && cfg_.beta2 < 1.0, "beta2 must be in [0,1)");
    REDUCE_CHECK(cfg_.eps > 0.0, "eps must be positive");
    set_learning_rate(cfg_.learning_rate);
    m_.reserve(params_.size());
    v_.reserve(params_.size());
    for (const parameter* p : params_) {
        m_.emplace_back(p->value.shape());
        v_.emplace_back(p->value.shape());
    }
}

void adam::step() {
    ++t_;
    const double bias1 = 1.0 - std::pow(cfg_.beta1, static_cast<double>(t_));
    const double bias2 = 1.0 - std::pow(cfg_.beta2, static_cast<double>(t_));
    const float lr = static_cast<float>(lr_);
    const float b1 = static_cast<float>(cfg_.beta1);
    const float b2 = static_cast<float>(cfg_.beta2);
    const float eps = static_cast<float>(cfg_.eps);
    const float wd = static_cast<float>(cfg_.weight_decay);
    const float inv_bias1 = static_cast<float>(1.0 / bias1);
    const float inv_bias2 = static_cast<float>(1.0 / bias2);

    for (std::size_t k = 0; k < params_.size(); ++k) {
        parameter& p = *params_[k];
        p.mask_grad();
        float* w = p.value.raw();
        const float* g = p.grad.raw();
        float* m = m_[k].raw();
        float* v = v_[k].raw();
        for (std::size_t i = 0, n = p.value.numel(); i < n; ++i) {
            const float grad_i = g[i] + wd * w[i];
            m[i] = b1 * m[i] + (1.0f - b1) * grad_i;
            v[i] = b2 * v[i] + (1.0f - b2) * grad_i * grad_i;
            const float m_hat = m[i] * inv_bias1;
            const float v_hat = v[i] * inv_bias2;
            w[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
        }
        p.apply_mask();
    }
}

optimizer_state adam::save_state() const {
    optimizer_state state;
    state.buffers.reserve(m_.size() + v_.size());
    for (const tensor& t : m_) { state.buffers.push_back(t); }
    for (const tensor& t : v_) { state.buffers.push_back(t); }
    state.step_count = t_;
    return state;
}

void adam::restore_state(const optimizer_state& state) {
    REDUCE_CHECK(state.buffers.size() == m_.size() + v_.size(),
                 "adam state snapshot has " << state.buffers.size() << " buffers, expected "
                                            << m_.size() + v_.size());
    for (std::size_t k = 0; k < m_.size(); ++k) {
        REDUCE_CHECK(state.buffers[k].shape() == m_[k].shape() &&
                         state.buffers[m_.size() + k].shape() == v_[k].shape(),
                     "adam state buffer " << k << " shape mismatch");
        m_[k] = state.buffers[k];
        v_[k] = state.buffers[m_.size() + k];
    }
    t_ = static_cast<std::size_t>(state.step_count);
}

void adam::mask_state() {
    mask_buffers_against_params(params_, &m_);
    mask_buffers_against_params(params_, &v_);
}

constant_lr::constant_lr(double rate) : rate_(rate) {
    REDUCE_CHECK(rate >= 0.0, "learning rate must be non-negative");
}

double constant_lr::rate_at(std::size_t) const { return rate_; }

step_decay_lr::step_decay_lr(double initial, double gamma, std::size_t period)
    : initial_(initial), gamma_(gamma), period_(period) {
    REDUCE_CHECK(initial >= 0.0, "initial rate must be non-negative");
    REDUCE_CHECK(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0,1]");
    REDUCE_CHECK(period > 0, "period must be positive");
}

double step_decay_lr::rate_at(std::size_t step) const {
    return initial_ * std::pow(gamma_, static_cast<double>(step / period_));
}

cosine_lr::cosine_lr(double initial, double floor, std::size_t total_steps)
    : initial_(initial), floor_(floor), total_steps_(total_steps) {
    REDUCE_CHECK(initial >= floor, "cosine schedule requires initial >= floor");
    REDUCE_CHECK(floor >= 0.0, "floor must be non-negative");
    REDUCE_CHECK(total_steps > 0, "total_steps must be positive");
}

double cosine_lr::rate_at(std::size_t step) const {
    if (step >= total_steps_) { return floor_; }
    const double progress = static_cast<double>(step) / static_cast<double>(total_steps_);
    return floor_ + 0.5 * (initial_ - floor_) * (1.0 + std::cos(std::numbers::pi * progress));
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
