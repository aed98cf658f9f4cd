#include "fault/mask_builder.h"

#include <algorithm>
#include <cstring>

#include "util/error.h"

namespace reduce {

tensor build_weight_mask(const gemm_mapping& mapping, const fault_grid& faults) {
    REDUCE_CHECK(faults.rows() == mapping.array_rows() && faults.cols() == mapping.array_cols(),
                 "fault grid does not match mapping geometry");
    const std::size_t fan_in = mapping.fan_in();
    const std::size_t fan_out = mapping.fan_out();
    const std::vector<std::size_t>& perm = mapping.column_permutation();
    const std::size_t rows = mapping.array_rows();
    const std::size_t cols = mapping.array_cols();
    // Weight (o, i) sits on PE (i % rows, perm[o % cols]), so the mask is
    // periodic: row o >= cols copies row o - cols, and entry i >= rows
    // repeats entry i - rows. Only min(fan_in, rows) x min(fan_out, cols)
    // entries read the grid, one per PE in use; the rest are copies.
    tensor mask({fan_out, fan_in});
    float* m = mask.raw();
    const std::size_t head = std::min(fan_in, rows);
    for (std::size_t o = 0; o < std::min(fan_out, cols); ++o) {
        float* mrow = m + o * fan_in;
        const std::size_t col = perm[o];
        for (std::size_t i = 0; i < head; ++i) {
            mrow[i] = is_faulty(faults.at(i, col)) ? 0.0f : 1.0f;
        }
        for (std::size_t i = head; i < fan_in; i += head) {
            std::memcpy(mrow + i, mrow, std::min(head, fan_in - i) * sizeof(float));
        }
    }
    for (std::size_t o = cols; o < fan_out; ++o) {
        std::memcpy(m + o * fan_in, m + (o - cols) * fan_in, fan_in * sizeof(float));
    }
    return mask;
}

namespace {

mask_stats attach_impl(sequential& model, const array_config& array, const fault_grid& faults,
                       const std::vector<std::vector<std::size_t>>* perms) {
    const std::vector<mapped_layer> layers = collect_mapped_layers(model);
    if (perms != nullptr) {
        REDUCE_CHECK(perms->size() == layers.size(),
                     "got " << perms->size() << " permutations for " << layers.size()
                            << " mapped layers");
    }
    mask_stats stats;
    for (std::size_t k = 0; k < layers.size(); ++k) {
        const mapped_layer& layer = layers[k];
        const gemm_mapping mapping =
            perms == nullptr
                ? gemm_mapping(array, layer.rows, layer.cols)
                : gemm_mapping(array, layer.rows, layer.cols, (*perms)[k]);
        tensor mask = build_weight_mask(mapping, faults);
        // The logical mask is [fan_out, fan_in]; conv weights store the same
        // elements as [O, C, kh, kw] in identical row-major order.
        mask.reshape(layer.weight->value.shape());
        stats.layers += 1;
        stats.total_weights += mask.numel();
        std::size_t zeros = 0;
        for (const float v : mask.data()) {
            if (v == 0.0f) { ++zeros; }
        }
        stats.masked_weights += zeros;
        layer.weight->mask = std::move(mask);
        layer.weight->apply_mask();
    }
    return stats;
}

}  // namespace

mask_stats attach_fault_masks(sequential& model, const array_config& array,
                              const fault_grid& faults) {
    return attach_impl(model, array, faults, nullptr);
}

mask_stats attach_fault_masks_permuted(sequential& model, const array_config& array,
                                       const fault_grid& faults,
                                       const std::vector<std::vector<std::size_t>>& perms) {
    return attach_impl(model, array, faults, &perms);
}

void clear_fault_masks(sequential& model) {
    for (parameter* p : model.parameters()) { p->clear_mask(); }
}

fault_state_guard::fault_state_guard(sequential& model, const model_snapshot& restore_to)
    : model_(model), snapshot_(restore_to), buffers_(model.state_buffers()) {
    saved_state_.reserve(buffers_.size());
    for (const tensor* t : buffers_) { saved_state_.push_back(*t); }
}

mask_stats fault_state_guard::swap_masks(const array_config& array,
                                         const fault_grid& faults) {
    // Old masks go first: attach only touches mapped layers, and a swap
    // must never leave a stale mask behind on a layer the new grid no
    // longer prunes. The weights keep their current (trained) values —
    // attach re-applies the new masks, zeroing newly pruned weights, which
    // is exactly the recover-and-continue semantics.
    clear_fault_masks(model_);
    ++swaps_;
    return attach_fault_masks(model_, array, faults);
}

fault_state_guard::~fault_state_guard() {
    // Masks first, then weights: restore_parameters leaves masks untouched,
    // so the reverse order would re-expose pruned weights through stale masks.
    clear_fault_masks(model_);
    restore_parameters(model_.parameters(), snapshot_);
    // Finally the non-parameter state (batch-norm running statistics) the
    // episode's training mutated.
    for (std::size_t i = 0; i < buffers_.size(); ++i) { *buffers_[i] = saved_state_[i]; }
}

double effective_fault_rate(sequential& model, const array_config& array,
                            const fault_grid& faults, effective_rate_kind kind) {
    REDUCE_CHECK(faults.rows() == array.rows && faults.cols() == array.cols,
                 "fault grid does not match array");
    switch (kind) {
        case effective_rate_kind::whole_array:
            return faults.fault_rate();
        case effective_rate_kind::used_subarray: {
            const std::vector<mapped_layer> layers = collect_mapped_layers(model);
            REDUCE_CHECK(!layers.empty(), "model has no accelerator-mapped layers");
            std::size_t max_rows = 0;
            std::size_t max_cols = 0;
            for (const mapped_layer& layer : layers) {
                max_rows = std::max(max_rows, std::min(layer.rows, array.rows));
                max_cols = std::max(max_cols, std::min(layer.cols, array.cols));
            }
            return faults.fault_rate_in(max_rows, max_cols);
        }
        case effective_rate_kind::weight_weighted: {
            const std::vector<mapped_layer> layers = collect_mapped_layers(model);
            REDUCE_CHECK(!layers.empty(), "model has no accelerator-mapped layers");
            std::size_t total = 0;
            double masked = 0.0;
            for (const mapped_layer& layer : layers) {
                const gemm_mapping mapping(array, layer.rows, layer.cols);
                const std::size_t count = layer.rows * layer.cols;
                masked += mapping.masked_weight_fraction(faults) * static_cast<double>(count);
                total += count;
            }
            return masked / static_cast<double>(total);
        }
    }
    throw invalid_argument_error("unknown effective_rate_kind");
}

}  // namespace reduce
