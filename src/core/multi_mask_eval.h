// Multi-mask evaluator — the post-FAP test accuracy of the pretrained
// weights under each of several fault maps.
//
// No src/ caller remains: every Step-1 cell and Step-3 chip measures its
// post-FAP accuracy inside its own retraining episode. The class is kept
// only for perfbench's traced drive, which feeds its values to
// chip_tuner::tune as `accuracy_before`; ROADMAP item 1b deletes it.
//
// It evaluates the fault grids one after another through one
// inference-only model clone:
//
//   * masked weights are written straight into the clone's mapped layers,
//     in one fused pass over a precomputed element→PE lookup table (no mask
//     tensors, no modulo math per chip, no restore — every other parameter
//     keeps its pretrained value);
//   * the clone then runs through evaluate_model (core/fat_trainer.h) — the
//     same layer path training and serial evaluation use.
//
// Determinism contract: evaluate()[i] is byte-identical to the serial path
//   restore_parameters → attach_fault_masks(grid_i) → trainer.evaluate()
// on a clone of the same prototype, at every group size and thread count.
// The pristine pretrained source is never mutated, so one evaluator serves
// any number of groups back to back.
//
// Memory: the evaluator holds one gradient-free model clone plus a pristine
// copy of its mapped weights, at any group size.
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

/// Multi-mask evaluator bound to one (model, pretrained snapshot, test set,
/// array) tuple. Thread-compatibility: one evaluator per thread (it owns a
/// private model clone); distinct evaluators never share mutable state.
class multi_mask_evaluator {
public:
    /// Clones `prototype` and restores `pretrained` into the clone; the
    /// referenced test set must outlive the evaluator. `trainer_cfg` only
    /// contributes the eval batch sizing rule (eval_batch_rows).
    multi_mask_evaluator(const sequential& prototype, const model_snapshot& pretrained,
                         const dataset& test_data, const array_config& array,
                         const fat_config& trainer_cfg);

    /// Test accuracy of the pretrained model under each fault grid, in
    /// order, each through the one inference clone. Element i is
    /// byte-identical to the serial restore→mask→evaluate path for
    /// grids[i]. Grids must match the array geometry; a fault-free grid (a
    /// chip with an empty mask) is valid and evaluates the unmasked model.
    std::vector<double> evaluate(const std::vector<const fault_grid*>& grids);

private:
    std::unique_ptr<sequential> clone_;  ///< the inference clone (no gradients)
    const dataset& test_data_;
    array_config array_;
    fat_config trainer_cfg_;
    /// Non-owning views into clone_; their weights hold the last grid's
    /// masked values.
    std::vector<mapped_layer> mapped_;
    /// Per mapped layer: the pretrained (unmasked) weight values.
    std::vector<tensor> pristine_;
    /// Per mapped layer: weight element → flat PE index (row*cols + col)
    /// under the identity column mapping — the same indexing
    /// build_weight_mask performs, hoisted out of the per-chip loop.
    std::vector<std::vector<std::uint32_t>> pe_lut_;
    /// Faulty-PE byte grid, storage reused across grids and calls.
    std::vector<unsigned char> faulty_scratch_;
};

}  // namespace reduce
