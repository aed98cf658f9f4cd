// Batched multi-mask evaluation engine — grouped test-set inference for the
// fleet stages of Reduce.
//
// Steps 2+3 pay their dominant non-training cost in repeated test-set
// inference: every chip's `accuracy_before` (and every sweep cell's epoch-0
// trajectory point) evaluates the SAME pretrained weights under a different
// fault mask, over the SAME test set. The serial path pays, per chip, a
// weight restore, a mask build + attach + apply, a full forward per eval
// batch, and a guard teardown. This engine evaluates K fault-masked
// variants in one pass instead:
//
//   * masked weights are materialized per variant in one fused pass over a
//     precomputed element→PE lookup table (no mask tensors, no modulo math
//     per chip, no model mutation);
//   * the test batch is gathered once and layers before the first mapped
//     layer run once (the shared prefix);
//   * the first mapped layer fans the shared activations out through the
//     grouped GEMM drivers of tensor/gemm.h — the activation panels are
//     packed once and reused across every masked weight;
//   * every later layer runs once over the variant-stacked batch, so
//     per-layer fixed costs (lowering, allocation, scatter, bias) are paid
//     once per group instead of once per chip; grouped conv lowering also
//     skips structurally-zero padding rows (see tensor/conv.h).
//
// Determinism contract: evaluate()[i] is byte-identical to the serial path
//   restore_parameters → attach_fault_masks(grid_i) → trainer.evaluate()
// on a clone of the same prototype, at every group size and thread count.
// The engine never mutates its model clone, so one evaluator serves any
// number of groups back to back (fleet workers keep one per thread).
//
// Memory: one group holds K × (mapped-layer weights) floats of masked
// weights plus K × (eval batch activations) — the --eval-batch-chips knob
// bounds K.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "accel/array_config.h"
#include "accel/fault_grid.h"
#include "core/fat_trainer.h"
#include "data/dataset.h"
#include "nn/models.h"
#include "nn/serialize.h"

namespace reduce {

/// Grouped evaluator bound to one (model, pretrained snapshot, test set,
/// array) tuple. Thread-compatibility: one evaluator per thread (it owns a
/// private model clone); distinct evaluators never share mutable state.
class multi_mask_evaluator {
public:
    /// Clones `prototype` and restores `pretrained` into the clone; the
    /// referenced test set must outlive the evaluator. `trainer_cfg` only
    /// contributes the eval batch sizing rule (max(batch_size, 256)), so
    /// grouped batches split exactly like fault_aware_trainer::evaluate —
    /// splits never change results, but matching keeps memory behaviour
    /// comparable.
    multi_mask_evaluator(const sequential& prototype, const model_snapshot& pretrained,
                         const dataset& test_data, const array_config& array,
                         const fat_config& trainer_cfg);

    /// Test accuracy of the pretrained model under each fault grid, all
    /// computed in one pass over the test set. Element i is byte-identical
    /// to the serial restore→mask→evaluate path for grids[i]. Grids must
    /// match the array geometry; a fault-free grid (a chip with an empty
    /// mask) is valid and evaluates the unmasked model.
    std::vector<double> evaluate(const std::vector<const fault_grid*>& grids);

private:
    /// The test-set pass over materialized masked weights.
    std::vector<double> run_pass(const std::vector<std::vector<tensor>>& masked,
                                 std::size_t groups);
    std::unique_ptr<sequential> model_;
    const dataset& test_data_;
    array_config array_;
    std::size_t eval_batch_;
    std::vector<mapped_layer> mapped_;  ///< non-owning views into model_
    /// Per mapped layer: weight element → flat PE index (row*cols + col)
    /// under the identity column mapping — the same indexing
    /// build_weight_mask performs, hoisted out of the per-chip loop.
    std::vector<std::vector<std::uint32_t>> pe_lut_;
    /// Masked-weight tensors [mapped layer][variant] and per-variant
    /// faulty-PE byte grids, storage reused across evaluate() calls
    /// (contents valid only within one call).
    std::vector<std::vector<tensor>> masked_scratch_;
    std::vector<std::vector<unsigned char>> faulty_scratch_;
};

}  // namespace reduce
