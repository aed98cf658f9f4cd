#include "nn/grouped.h"

#include <cstring>

#include "tensor/conv.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/workspace.h"
#include "util/error.h"

namespace reduce {

namespace {

/// Flattens a (possibly nested) container into execution-order leaf layers —
/// the order collect_mapped_layers and sequential::forward share.
void flatten_layers(sequential& model, std::vector<module*>& out) {
    for (std::size_t i = 0; i < model.size(); ++i) {
        module& layer = model.layer(i);
        if (auto* inner = dynamic_cast<sequential*>(&layer)) {
            flatten_layers(*inner, out);
        } else {
            out.push_back(&layer);
        }
    }
}

}  // namespace

grouped_train_net::grouped_train_net(const std::vector<sequential*>& variants) {
    REDUCE_CHECK(!variants.empty(), "grouped_train_net needs at least one variant");
    groups_ = variants.size();
    flat_.resize(groups_);
    for (std::size_t g = 0; g < groups_; ++g) {
        REDUCE_CHECK(variants[g] != nullptr, "grouped_train_net got a null variant");
        flatten_layers(*variants[g], flat_[g]);
        REDUCE_CHECK(flat_[g].size() == flat_[0].size(),
                     "grouped_train_net variant " << g << " has " << flat_[g].size()
                                                  << " layers, variant 0 has "
                                                  << flat_[0].size());
    }
    flatten_variants(variants);
}

void grouped_train_net::flatten_variants(const std::vector<sequential*>&) {
    const std::size_t count = flat_[0].size();
    for (std::size_t i = 0; i < count; ++i) {
        module* m0 = flat_[0][i];
        for (std::size_t g = 1; g < groups_; ++g) {
            REDUCE_CHECK(flat_[g][i]->name() == m0->name(),
                         "grouped_train_net variants diverge at layer "
                             << i << ": '" << m0->name() << "' vs '" << flat_[g][i]->name()
                             << "' — variants must be clones of one prototype");
        }
        step st;
        st.mods.resize(groups_);
        for (std::size_t g = 0; g < groups_; ++g) { st.mods[g] = flat_[g][i]; }
        if (dynamic_cast<linear*>(m0) != nullptr) {
            st.k = step::kind::linear_k;
        } else if (dynamic_cast<conv2d_layer*>(m0) != nullptr) {
            st.k = step::kind::conv_k;
        } else if (dynamic_cast<relu_layer*>(m0) != nullptr) {
            st.k = step::kind::relu_k;
        } else if (dynamic_cast<flatten*>(m0) != nullptr) {
            st.k = step::kind::flatten_k;
        } else if (dynamic_cast<max_pool2d_layer*>(m0) != nullptr) {
            st.k = step::kind::max_pool_k;
        } else if (dynamic_cast<global_avg_pool_layer*>(m0) != nullptr) {
            st.k = step::kind::global_avg_pool_k;
        } else {
            // Dropout, batch-norm, and anything unknown: stateful or
            // potentially stateful, so each variant block runs through its
            // own layer object (RNG streams, batch/running statistics).
            st.k = step::kind::per_variant_k;
        }
        steps_.push_back(std::move(st));
    }
}

tensor grouped_train_net::forward(const tensor& stacked) {
    REDUCE_CHECK(stacked.dim() >= 1 && stacked.extent(0) % groups_ == 0,
                 "grouped_train_net::forward batch " << stacked.describe()
                                                     << " not divisible by " << groups_
                                                     << " variants");
    tensor x = stacked;
    for (step& st : steps_) { x = forward_step(st, std::move(x)); }
    return x;
}

tensor grouped_train_net::backward(const tensor& grad_stacked) {
    tensor g = grad_stacked;
    for (std::size_t i = steps_.size(); i > 0; --i) {
        g = backward_step(steps_[i - 1], std::move(g));
    }
    return g;
}

tensor grouped_train_net::forward_step(step& st, tensor x) {
    const std::size_t total = x.extent(0);
    const std::size_t n = total / groups_;
    workspace& ws = workspace::local();
    switch (st.k) {
        case step::kind::linear_k: {
            auto* fc0 = static_cast<linear*>(st.mods[0]);
            const std::size_t in = fc0->in_features();
            const std::size_t out = fc0->out_features();
            REDUCE_CHECK(x.dim() == 2 && x.extent(1) == in,
                         "grouped linear expects [K*N," << in << "], got " << x.describe());
            st.cached_input = x;
            tensor y({total, out});
            for (std::size_t g = 0; g < groups_; ++g) {
                auto* fc = static_cast<linear*>(st.mods[g]);
                // matmul_nt then add_row_bias_inplace — the serial layer's
                // exact passes, on block g's rows.
                float* blk = y.raw() + g * n * out;
                gemm_nt(n, out, in, x.raw() + g * n * in, in, fc->weight().value.raw(), in,
                        blk, out, /*accumulate=*/false, ws);
                const float* bias = fc->bias().value.raw();
                for (std::size_t i = 0; i < n; ++i) {
                    float* row = blk + i * out;
                    for (std::size_t j = 0; j < out; ++j) { row[j] += bias[j]; }
                }
            }
            return y;
        }
        case step::kind::conv_k: {
            auto* c0 = static_cast<conv2d_layer*>(st.mods[0]);
            const conv2d_spec& spec = c0->spec();
            st.cached_input = x;
            std::vector<const tensor*> weights(groups_);
            std::vector<const tensor*> biases(groups_);
            for (std::size_t g = 0; g < groups_; ++g) {
                auto* conv = static_cast<conv2d_layer*>(st.mods[g]);
                weights[g] = &conv->weight().value;
                biases[g] = &conv->bias().value;
            }
            return conv2d_forward_grouped_vb(x, groups_, weights, biases, spec);
        }
        case step::kind::relu_k: {
            st.cached_input = x;
            return relu(x);
        }
        case step::kind::flatten_k: {
            st.cached_shape = x.shape();
            return x.reshaped({total, x.numel() / total});
        }
        case step::kind::max_pool_k: {
            auto* p0 = static_cast<max_pool2d_layer*>(st.mods[0]);
            st.cached_shape = x.shape();
            pool2d_result res = max_pool2d_forward(x, p0->spec());
            st.argmax = std::move(res.argmax);
            return std::move(res.output);
        }
        case step::kind::global_avg_pool_k: {
            st.cached_shape = x.shape();
            return global_avg_pool_forward(x);
        }
        case step::kind::per_variant_k: {
            // Slice each variant's contiguous block out and run it through
            // that variant's OWN layer — dropout draws from its own stream
            // in serial element order, batch-norm sees exactly its block's
            // batch statistics and advances its own running stats.
            const std::size_t block = x.numel() / groups_;
            shape_t slice_shape = x.shape();
            slice_shape[0] = n;
            tensor slice(slice_shape);
            tensor out;
            std::size_t out_block = 0;
            for (std::size_t g = 0; g < groups_; ++g) {
                std::memcpy(slice.raw(), x.raw() + g * block, block * sizeof(float));
                const tensor o = st.mods[g]->forward(slice);
                if (g == 0) {
                    REDUCE_CHECK(o.dim() >= 1 && o.extent(0) == n,
                                 "grouped per-variant layer '" << st.mods[0]->name()
                                                               << "' changed the batch size");
                    shape_t out_shape = o.shape();
                    out_shape[0] = total;
                    out = tensor(out_shape);
                    out_block = o.numel();
                }
                REDUCE_CHECK(o.numel() == out_block,
                             "grouped per-variant layer output size diverged across variants");
                std::memcpy(out.raw() + g * out_block, o.raw(), out_block * sizeof(float));
            }
            return out;
        }
    }
    REDUCE_CHECK(false, "grouped_train_net: unreachable step kind");
    return x;
}

tensor grouped_train_net::backward_step(step& st, tensor grad) {
    const std::size_t total = grad.extent(0);
    const std::size_t n = total / groups_;
    workspace& ws = workspace::local();
    switch (st.k) {
        case step::kind::linear_k: {
            auto* fc0 = static_cast<linear*>(st.mods[0]);
            const std::size_t in = fc0->in_features();
            const std::size_t out = fc0->out_features();
            const float* gr = grad.raw();
            tensor dx({total, in});
            for (std::size_t g = 0; g < groups_; ++g) {
                auto* fc = static_cast<linear*>(st.mods[g]);
                // dW += dYᵀ·X — matmul_tn_acc's exact GEMM on block g.
                gemm_tn(out, in, n, gr + g * n * out, out,
                        st.cached_input.raw() + g * n * in, in, fc->weight().grad.raw(), in,
                        /*accumulate=*/true, ws);
                // db += column sums of dY — column_sums_acc's exact
                // row-ascending chain per column.
                float* gb = fc->bias().grad.raw();
                const float* blk = gr + g * n * out;
                for (std::size_t i = 0; i < n; ++i) {
                    const float* row = blk + i * out;
                    for (std::size_t j = 0; j < out; ++j) { gb[j] += row[j]; }
                }
                // dX = dY·W — matmul's exact GEMM on block g.
                gemm_nn(n, in, out, gr + g * n * out, out, fc->weight().value.raw(), in,
                        dx.raw() + g * n * in, in, /*accumulate=*/false, ws);
            }
            return dx;
        }
        case step::kind::conv_k: {
            auto* c0 = static_cast<conv2d_layer*>(st.mods[0]);
            std::vector<const tensor*> weights(groups_);
            std::vector<tensor*> grad_weights(groups_);
            std::vector<tensor*> grad_biases(groups_);
            for (std::size_t g = 0; g < groups_; ++g) {
                auto* conv = static_cast<conv2d_layer*>(st.mods[g]);
                weights[g] = &conv->weight().value;
                grad_weights[g] = &conv->weight().grad;
                grad_biases[g] = &conv->bias().grad;
            }
            tensor dx(st.cached_input.shape());
            conv2d_backward_grouped(st.cached_input, groups_, weights, grad, c0->spec(), dx,
                                    grad_weights, grad_biases);
            return dx;
        }
        case step::kind::relu_k: {
            return relu_backward(grad, st.cached_input);
        }
        case step::kind::flatten_k: {
            return grad.reshaped(st.cached_shape);
        }
        case step::kind::max_pool_k: {
            return max_pool2d_backward(grad, st.argmax, st.cached_shape);
        }
        case step::kind::global_avg_pool_k: {
            return global_avg_pool_backward(grad, st.cached_shape);
        }
        case step::kind::per_variant_k: {
            const std::size_t block = grad.numel() / groups_;
            shape_t slice_shape = grad.shape();
            slice_shape[0] = n;
            tensor slice(slice_shape);
            tensor out;
            std::size_t out_block = 0;
            for (std::size_t g = 0; g < groups_; ++g) {
                std::memcpy(slice.raw(), grad.raw() + g * block, block * sizeof(float));
                const tensor o = st.mods[g]->backward(slice);
                if (g == 0) {
                    shape_t out_shape = o.shape();
                    out_shape[0] = total;
                    out = tensor(out_shape);
                    out_block = o.numel();
                }
                std::memcpy(out.raw() + g * out_block, o.raw(), out_block * sizeof(float));
            }
            return out;
        }
    }
    REDUCE_CHECK(false, "grouped_train_net: unreachable step kind");
    return grad;
}

}  // namespace reduce
