#include "core/multi_mask_eval.h"

#include <algorithm>

#include "accel/mapping.h"
#include "data/loader.h"
#include "nn/metrics.h"
#include "util/error.h"

namespace reduce {

multi_mask_evaluator::multi_mask_evaluator(const sequential& prototype,
                                           const model_snapshot& pretrained,
                                           const dataset& test_data,
                                           const array_config& array,
                                           const fat_config& trainer_cfg)
    : model_(clone_model(prototype)), test_data_(test_data), array_(array) {
    test_data_.validate();
    REDUCE_CHECK(trainer_cfg.batch_size > 0, "batch size must be positive");
    eval_batch_ = eval_batch_rows(trainer_cfg);
    restore_parameters(model_->parameters(), pretrained);
    // The clone stays in eval mode for its whole life: the engine only ever
    // runs inference on it and never attaches masks or trains, so no
    // per-group restore is needed.
    model_->set_training(false);
    mapped_ = collect_mapped_layers(*model_);

    // Hoist the per-weight-element PE indexing (the arithmetic
    // build_weight_mask performs per chip) into a one-time table. The
    // mapping law itself stays in gemm_mapping::pe_for_weight — this only
    // flattens it, so the grouped path can never drift from the serial
    // attach path's placement.
    pe_lut_.reserve(mapped_.size());
    for (const mapped_layer& layer : mapped_) {
        const gemm_mapping mapping(array_, layer.rows, layer.cols);
        const std::size_t fan_in = mapping.fan_in();
        const std::size_t fan_out = mapping.fan_out();
        const std::size_t cols = mapping.array_cols();
        std::vector<std::uint32_t> lut(fan_out * fan_in);
        for (std::size_t o = 0; o < fan_out; ++o) {
            std::uint32_t* lrow = lut.data() + o * fan_in;
            for (std::size_t i = 0; i < fan_in; ++i) {
                const pe_coordinate pe = mapping.pe_for_weight(i, o);
                lrow[i] = static_cast<std::uint32_t>(pe.row * cols + pe.col);
            }
        }
        pe_lut_.push_back(std::move(lut));
    }
}

std::vector<double> multi_mask_evaluator::evaluate(
    const std::vector<const fault_grid*>& grids) {
    const std::size_t groups = grids.size();
    REDUCE_CHECK(groups > 0, "multi_mask_evaluator::evaluate needs at least one fault grid");
    faulty_scratch_.resize(groups);
    for (std::size_t g = 0; g < groups; ++g) {
        REDUCE_CHECK(grids[g] != nullptr, "multi_mask_evaluator::evaluate got a null grid");
        REDUCE_CHECK(grids[g]->rows() == array_.rows && grids[g]->cols() == array_.cols,
                     "fault grid " << g << " does not match the array geometry");
        const std::vector<pe_fault>& states = grids[g]->states();
        faulty_scratch_[g].resize(states.size());
        for (std::size_t j = 0; j < states.size(); ++j) {
            faulty_scratch_[g][j] = is_faulty(states[j]) ? 1 : 0;
        }
    }
    const std::vector<std::vector<unsigned char>>& faulty = faulty_scratch_;

    // Masked weights, one fused pass per (layer, variant): w * {0,1} exactly
    // as parameter::apply_mask computes it, so -0/NaN semantics match the
    // serial attach path bit for bit. The tensors live on the evaluator and
    // are reshaped in place (ensure_shape), so back-to-back groups of the
    // same size allocate nothing.
    masked_scratch_.resize(mapped_.size());
    for (std::size_t l = 0; l < mapped_.size(); ++l) {
        const tensor& w = mapped_[l].weight->value;
        const std::uint32_t* lut = pe_lut_[l].data();
        std::vector<tensor>& variants = masked_scratch_[l];
        variants.resize(groups);
        for (std::size_t g = 0; g < groups; ++g) {
            tensor& mw = variants[g];
            mw.ensure_shape(w.shape());
            const unsigned char* bad = faulty[g].data();
            const float* src = w.raw();
            float* dst = mw.raw();
            const std::size_t count = w.numel();
            for (std::size_t e = 0; e < count; ++e) {
                dst[e] = src[e] * (bad[lut[e]] ? 0.0f : 1.0f);
            }
        }
    }
    return run_pass(masked_scratch_, groups);
}

std::vector<double> multi_mask_evaluator::run_pass(
    const std::vector<std::vector<tensor>>& masked, std::size_t groups) {
    // One pass over the test set. A one-model evaluation takes
    // max(batch_size, 256) rows at a time; here the VARIANT-STACKED batch is
    // what occupies cache and allocator, so divide the row budget by the
    // group size (floor 32 rows) — the stacked working set then stays near
    // the serial one at any K. Batch splits never change results: every
    // row's logits depend only on that row (GEMM k-chains, eval-mode
    // normalization, and pooling are all row/image-local), so the per-
    // variant correct counts match the serial path bit for bit regardless.
    const std::size_t rows_per_batch =
        std::max<std::size_t>(32, (eval_batch_ + groups - 1) / groups);
    std::vector<std::size_t> correct(groups, 0);
    std::size_t index = 0;
    std::vector<std::size_t> indices;
    while (index < test_data_.size()) {
        const std::size_t count = std::min(rows_per_batch, test_data_.size() - index);
        indices.resize(count);
        for (std::size_t i = 0; i < count; ++i) { indices[i] = index + i; }
        const batch b = gather_batch(test_data_, indices);
        const tensor stacked = forward_masked_group(*model_, b.features, groups, masked);
        const std::vector<std::size_t> counts =
            correct_counts_grouped(stacked, groups, b.labels);
        for (std::size_t g = 0; g < groups; ++g) { correct[g] += counts[g]; }
        index += count;
    }

    std::vector<double> accuracy(groups);
    for (std::size_t g = 0; g < groups; ++g) {
        accuracy[g] = static_cast<double>(correct[g]) / static_cast<double>(test_data_.size());
    }
    return accuracy;
}

}  // namespace reduce
