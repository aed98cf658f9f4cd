#include "core/multi_mask_eval.h"

#include "accel/mapping.h"
#include "util/error.h"

namespace reduce {

multi_mask_evaluator::multi_mask_evaluator(const sequential& prototype,
                                           const model_snapshot& pretrained,
                                           const dataset& test_data,
                                           const array_config& array,
                                           const fat_config& trainer_cfg)
    : clone_(clone_model(prototype)),
      test_data_(test_data),
      array_(array),
      trainer_cfg_(trainer_cfg) {
    test_data_.validate();
    REDUCE_CHECK(trainer_cfg.batch_size > 0, "batch size must be positive");
    // Pretrained weights everywhere; only the mapped weights are ever
    // rewritten, from their pristine copies, so no per-grid restore is
    // needed. Inference-only: the clone never runs backward, so it drops
    // its gradient buffers — half of its parameter memory.
    restore_parameters(clone_->parameters(), pretrained);
    for (parameter* p : clone_->parameters()) { p->grad = tensor(); }
    mapped_ = collect_mapped_layers(*clone_);

    // Hoist the per-weight-element PE indexing (the arithmetic
    // build_weight_mask performs per chip) into a one-time table. The
    // mapping law itself stays in gemm_mapping::pe_for_weight — this only
    // flattens it, so the evaluator can never drift from the serial attach
    // path's placement.
    pristine_.reserve(mapped_.size());
    pe_lut_.reserve(mapped_.size());
    for (const mapped_layer& layer : mapped_) {
        pristine_.push_back(layer.weight->value);
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
    REDUCE_CHECK(!grids.empty(), "multi_mask_evaluator::evaluate needs at least one fault grid");
    for (std::size_t g = 0; g < grids.size(); ++g) {
        REDUCE_CHECK(grids[g] != nullptr, "multi_mask_evaluator::evaluate got a null grid");
        REDUCE_CHECK(grids[g]->rows() == array_.rows && grids[g]->cols() == array_.cols,
                     "fault grid " << g << " does not match the array geometry");
    }
    std::vector<double> accuracies;
    accuracies.reserve(grids.size());
    for (const fault_grid* grid : grids) {
        const std::vector<pe_fault>& states = grid->states();
        faulty_scratch_.resize(states.size());
        for (std::size_t j = 0; j < states.size(); ++j) {
            faulty_scratch_[j] = is_faulty(states[j]) ? 1 : 0;
        }
        // Masked weights, one fused pass per layer, written straight into
        // the clone's mapped weights: w * {0,1} exactly as
        // parameter::apply_mask computes it, so -0/NaN semantics match the
        // serial attach path bit for bit. Every other parameter and buffer
        // of the clone keeps its pretrained value.
        const unsigned char* bad = faulty_scratch_.data();
        for (std::size_t l = 0; l < mapped_.size(); ++l) {
            const std::uint32_t* lut = pe_lut_[l].data();
            const float* src = pristine_[l].raw();
            float* dst = mapped_[l].weight->value.raw();
            const std::size_t count = pristine_[l].numel();
            for (std::size_t e = 0; e < count; ++e) {
                dst[e] = src[e] * (bad[lut[e]] ? 0.0f : 1.0f);
            }
        }
        accuracies.push_back(evaluate_model(*clone_, test_data_, trainer_cfg_));
    }
    return accuracies;
}

}  // namespace reduce
