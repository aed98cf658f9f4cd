#include "nn/norm.h"

#include <cmath>

#include "util/error.h"

namespace reduce {

namespace {

void init_affine(parameter& gamma, parameter& beta, std::size_t n) {
    gamma.name = "gamma";
    gamma.value = tensor({n}, 1.0f);
    gamma.grad = tensor({n});
    beta.name = "beta";
    beta.value = tensor({n});
    beta.grad = tensor({n});
}

}  // namespace

batch_norm1d::batch_norm1d(std::size_t features, double momentum, double eps)
    : features_(features), momentum_(momentum), eps_(eps) {
    REDUCE_CHECK(features > 0, "batch_norm1d needs positive feature count");
    REDUCE_CHECK(momentum > 0.0 && momentum <= 1.0, "momentum must be in (0,1]");
    init_affine(gamma_, beta_, features);
    running_mean_ = tensor({features});
    running_var_ = tensor({features}, 1.0f);
}

tensor batch_norm1d::forward(const tensor& input) {
    REDUCE_CHECK(input.dim() == 2 && input.extent(1) == features_,
                 "batch_norm1d expects [N," << features_ << "], got " << input.describe());
    const std::size_t batch = input.extent(0);
    tensor output(input.shape());
    // Reuse the cache buffers across steps — batch shape is stable within a
    // training run, so these reallocate only on the first step.
    cached_normalized_.ensure_shape(input.shape());
    cached_inv_std_.ensure_shape({features_});
    cached_batch_ = batch;

    const float* x = input.raw();
    float* y = output.raw();
    float* xhat = cached_normalized_.raw();
    float* inv_std = cached_inv_std_.raw();

    if (training_) { REDUCE_CHECK(batch >= 2, "batch_norm1d training needs batch >= 2"); }
    for (std::size_t j = 0; j < features_; ++j) {
        double mean_j = 0.0;
        double var_j = 0.0;
        if (training_) {
            for (std::size_t i = 0; i < batch; ++i) { mean_j += x[i * features_ + j]; }
            mean_j /= static_cast<double>(batch);
            for (std::size_t i = 0; i < batch; ++i) {
                const double d = x[i * features_ + j] - mean_j;
                var_j += d * d;
            }
            var_j /= static_cast<double>(batch);  // biased, as in PyTorch forward
            running_mean_[j] = static_cast<float>((1.0 - momentum_) * running_mean_[j] +
                                                  momentum_ * mean_j);
            // Running variance uses the unbiased estimate.
            const double unbiased =
                batch > 1 ? var_j * static_cast<double>(batch) / static_cast<double>(batch - 1)
                          : var_j;
            running_var_[j] = static_cast<float>((1.0 - momentum_) * running_var_[j] +
                                                 momentum_ * unbiased);
        } else {
            mean_j = running_mean_[j];
            var_j = running_var_[j];
        }
        const float istd = static_cast<float>(1.0 / std::sqrt(var_j + eps_));
        inv_std[j] = istd;
        const float g = gamma_.value[j];
        const float b = beta_.value[j];
        for (std::size_t i = 0; i < batch; ++i) {
            const float norm = (x[i * features_ + j] - static_cast<float>(mean_j)) * istd;
            xhat[i * features_ + j] = norm;
            y[i * features_ + j] = g * norm + b;
        }
    }
    return output;
}

tensor batch_norm1d::backward(const tensor& grad_output) {
    REDUCE_CHECK(cached_batch_ > 0, "batch_norm1d backward before forward");
    REDUCE_CHECK(grad_output.shape() == cached_normalized_.shape(),
                 "batch_norm1d backward shape mismatch");
    const std::size_t batch = cached_batch_;
    tensor grad_input(grad_output.shape());
    const float* dy = grad_output.raw();
    const float* xhat = cached_normalized_.raw();
    float* dx = grad_input.raw();

    for (std::size_t j = 0; j < features_; ++j) {
        double sum_dy = 0.0;
        double sum_dy_xhat = 0.0;
        for (std::size_t i = 0; i < batch; ++i) {
            sum_dy += dy[i * features_ + j];
            sum_dy_xhat += static_cast<double>(dy[i * features_ + j]) * xhat[i * features_ + j];
        }
        gamma_.grad[j] += static_cast<float>(sum_dy_xhat);
        beta_.grad[j] += static_cast<float>(sum_dy);

        const float g = gamma_.value[j];
        const float istd = cached_inv_std_[j];
        if (training_) {
            const double inv_n = 1.0 / static_cast<double>(batch);
            for (std::size_t i = 0; i < batch; ++i) {
                const double term = static_cast<double>(dy[i * features_ + j]) -
                                    inv_n * sum_dy -
                                    inv_n * sum_dy_xhat * xhat[i * features_ + j];
                dx[i * features_ + j] = static_cast<float>(term * g * istd);
            }
        } else {
            // Eval mode: statistics are constants.
            for (std::size_t i = 0; i < batch; ++i) {
                dx[i * features_ + j] = dy[i * features_ + j] * g * istd;
            }
        }
    }
    return grad_input;
}

std::vector<parameter*> batch_norm1d::parameters() { return {&gamma_, &beta_}; }

std::unique_ptr<module> batch_norm1d::clone() const {
    auto copy = std::make_unique<batch_norm1d>(features_, momentum_, eps_);
    copy->gamma_ = gamma_;
    copy->beta_ = beta_;
    copy->running_mean_ = running_mean_;
    copy->running_var_ = running_var_;
    copy->training_ = training_;
    return copy;
}

batch_norm2d::batch_norm2d(std::size_t channels, double momentum, double eps)
    : channels_(channels), momentum_(momentum), eps_(eps) {
    REDUCE_CHECK(channels > 0, "batch_norm2d needs positive channel count");
    REDUCE_CHECK(momentum > 0.0 && momentum <= 1.0, "momentum must be in (0,1]");
    init_affine(gamma_, beta_, channels);
    running_mean_ = tensor({channels});
    running_var_ = tensor({channels}, 1.0f);
}

tensor batch_norm2d::forward(const tensor& input) {
    REDUCE_CHECK(input.dim() == 4 && input.extent(1) == channels_,
                 "batch_norm2d expects [N," << channels_ << ",H,W], got " << input.describe());
    const std::size_t batch = input.extent(0);
    const std::size_t plane = input.extent(2) * input.extent(3);
    const std::size_t count = batch * plane;
    tensor output(input.shape());
    // Same buffer-reuse policy as batch_norm1d: steady-state allocation-free.
    cached_normalized_.ensure_shape(input.shape());
    cached_inv_std_.ensure_shape({channels_});
    cached_count_ = count;

    const float* x = input.raw();
    float* y = output.raw();
    float* xhat = cached_normalized_.raw();
    float* inv_std = cached_inv_std_.raw();

    if (training_) { REDUCE_CHECK(count >= 2, "batch_norm2d training needs N*H*W >= 2"); }
    for (std::size_t c = 0; c < channels_; ++c) {
        double mean_c = 0.0;
        double var_c = 0.0;
        if (training_) {
            for (std::size_t n = 0; n < batch; ++n) {
                const float* p = x + (n * channels_ + c) * plane;
                for (std::size_t i = 0; i < plane; ++i) { mean_c += p[i]; }
            }
            mean_c /= static_cast<double>(count);
            for (std::size_t n = 0; n < batch; ++n) {
                const float* p = x + (n * channels_ + c) * plane;
                for (std::size_t i = 0; i < plane; ++i) {
                    const double d = p[i] - mean_c;
                    var_c += d * d;
                }
            }
            var_c /= static_cast<double>(count);
            running_mean_[c] = static_cast<float>((1.0 - momentum_) * running_mean_[c] +
                                                  momentum_ * mean_c);
            const double unbiased =
                count > 1 ? var_c * static_cast<double>(count) / static_cast<double>(count - 1)
                          : var_c;
            running_var_[c] = static_cast<float>((1.0 - momentum_) * running_var_[c] +
                                                 momentum_ * unbiased);
        } else {
            mean_c = running_mean_[c];
            var_c = running_var_[c];
        }
        const float istd = static_cast<float>(1.0 / std::sqrt(var_c + eps_));
        inv_std[c] = istd;
        const float g = gamma_.value[c];
        const float b = beta_.value[c];
        for (std::size_t n = 0; n < batch; ++n) {
            const float* p = x + (n * channels_ + c) * plane;
            float* q = y + (n * channels_ + c) * plane;
            float* h = xhat + (n * channels_ + c) * plane;
            for (std::size_t i = 0; i < plane; ++i) {
                const float norm = (p[i] - static_cast<float>(mean_c)) * istd;
                h[i] = norm;
                q[i] = g * norm + b;
            }
        }
    }
    return output;
}

tensor batch_norm2d::backward(const tensor& grad_output) {
    REDUCE_CHECK(cached_count_ > 0, "batch_norm2d backward before forward");
    REDUCE_CHECK(grad_output.shape() == cached_normalized_.shape(),
                 "batch_norm2d backward shape mismatch");
    const std::size_t batch = grad_output.extent(0);
    const std::size_t plane = grad_output.extent(2) * grad_output.extent(3);
    tensor grad_input(grad_output.shape());
    const float* dy = grad_output.raw();
    const float* xhat = cached_normalized_.raw();
    float* dx = grad_input.raw();

    for (std::size_t c = 0; c < channels_; ++c) {
        double sum_dy = 0.0;
        double sum_dy_xhat = 0.0;
        for (std::size_t n = 0; n < batch; ++n) {
            const float* pdy = dy + (n * channels_ + c) * plane;
            const float* ph = xhat + (n * channels_ + c) * plane;
            for (std::size_t i = 0; i < plane; ++i) {
                sum_dy += pdy[i];
                sum_dy_xhat += static_cast<double>(pdy[i]) * ph[i];
            }
        }
        gamma_.grad[c] += static_cast<float>(sum_dy_xhat);
        beta_.grad[c] += static_cast<float>(sum_dy);

        const float g = gamma_.value[c];
        const float istd = cached_inv_std_[c];
        const double inv_n = 1.0 / static_cast<double>(cached_count_);
        for (std::size_t n = 0; n < batch; ++n) {
            const float* pdy = dy + (n * channels_ + c) * plane;
            const float* ph = xhat + (n * channels_ + c) * plane;
            float* pdx = dx + (n * channels_ + c) * plane;
            for (std::size_t i = 0; i < plane; ++i) {
                if (training_) {
                    const double term = static_cast<double>(pdy[i]) - inv_n * sum_dy -
                                        inv_n * sum_dy_xhat * ph[i];
                    pdx[i] = static_cast<float>(term * g * istd);
                } else {
                    pdx[i] = pdy[i] * g * istd;
                }
            }
        }
    }
    return grad_input;
}

std::vector<parameter*> batch_norm2d::parameters() { return {&gamma_, &beta_}; }

std::unique_ptr<module> batch_norm2d::clone() const {
    auto copy = std::make_unique<batch_norm2d>(channels_, momentum_, eps_);
    copy->gamma_ = gamma_;
    copy->beta_ = beta_;
    copy->running_mean_ = running_mean_;
    copy->running_var_ = running_var_;
    copy->training_ = training_;
    return copy;
}

}  // namespace reduce
