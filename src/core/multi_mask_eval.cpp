#include "core/multi_mask_eval.h"

#include "accel/mapping.h"
#include "util/error.h"

namespace reduce {

multi_mask_evaluator::multi_mask_evaluator(const sequential& prototype,
                                           const model_snapshot& pretrained,
                                           const dataset& test_data,
                                           const array_config& array,
                                           const fat_config& trainer_cfg)
    : model_(clone_model(prototype)),
      test_data_(test_data),
      array_(array),
      trainer_cfg_(trainer_cfg) {
    test_data_.validate();
    REDUCE_CHECK(trainer_cfg.batch_size > 0, "batch size must be positive");
    // The pristine source of every variant: pretrained weights, never
    // masked or trained, so no per-group restore is needed.
    restore_parameters(model_->parameters(), pretrained);
    mapped_ = collect_mapped_layers(*model_);

    // Hoist the per-weight-element PE indexing (the arithmetic
    // build_weight_mask performs per chip) into a one-time table. The
    // mapping law itself stays in gemm_mapping::pe_for_weight — this only
    // flattens it, so the evaluator can never drift from the serial attach
    // path's placement.
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
    while (clones_.size() < groups) {
        clones_.push_back(clone_model(*model_));
        // Inference-only: a clone never runs backward, so it drops its
        // gradient buffers — half of its parameter memory.
        for (parameter* p : clones_.back()->parameters()) { p->grad = tensor(); }
        clone_mapped_.push_back(collect_mapped_layers(*clones_.back()));
    }

    // Masked weights, one fused pass per (layer, variant), written straight
    // into the clone's mapped weights: w * {0,1} exactly as
    // parameter::apply_mask computes it, so -0/NaN semantics match the
    // serial attach path bit for bit. Every other parameter and buffer of
    // a clone keeps the pretrained value it was cloned with.
    std::vector<sequential*> models(groups);
    for (std::size_t g = 0; g < groups; ++g) {
        const unsigned char* bad = faulty_scratch_[g].data();
        for (std::size_t l = 0; l < mapped_.size(); ++l) {
            const tensor& w = mapped_[l].weight->value;
            const std::uint32_t* lut = pe_lut_[l].data();
            const float* src = w.raw();
            float* dst = clone_mapped_[g][l].weight->value.raw();
            const std::size_t count = w.numel();
            for (std::size_t e = 0; e < count; ++e) {
                dst[e] = src[e] * (bad[lut[e]] ? 0.0f : 1.0f);
            }
        }
        models[g] = clones_[g].get();
    }
    return evaluate_variants(models, test_data_, trainer_cfg_);
}

}  // namespace reduce
