// Multi-mask evaluation engine — test-set inference for the fleet stages
// of Reduce.
//
// Steps 2+3 pay their dominant non-training cost in repeated test-set
// inference: every chip's `accuracy_before` (and every sweep cell's epoch-0
// trajectory point) evaluates the SAME pretrained weights under a different
// fault mask, over the SAME test set. The serial path pays, per chip, a
// weight restore, a mask build + attach + apply, and a guard teardown. This
// engine evaluates K fault-masked variants together instead:
//
//   * masked weights are written straight into the mapped layers of one
//     model clone per variant, in one fused pass over a precomputed
//     element→PE lookup table (no mask tensors, no modulo math per chip,
//     no restore — every other parameter keeps its pretrained value);
//   * the clones then run through evaluate_variants (core/fat_trainer.h):
//     each test batch is gathered once and run through every clone's own
//     layers — the same layer path training and serial evaluation use.
//
// Determinism contract: evaluate()[i] is byte-identical to the serial path
//   restore_parameters → attach_fault_masks(grid_i) → trainer.evaluate()
// on a clone of the same prototype, at every group size and thread count.
// The pristine pretrained source is never mutated, so one evaluator serves
// any number of groups back to back (fleet workers keep one per thread).
//
// Memory: the evaluator holds K + 1 model clones (grown lazily to the
// largest group seen); the --eval-batch-chips knob bounds K.
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
/// array) tuple. Thread-compatibility: one evaluator per thread (it owns
/// private model clones); distinct evaluators never share mutable state.
class multi_mask_evaluator {
public:
    /// Clones `prototype` and restores `pretrained` into the clone; the
    /// referenced test set must outlive the evaluator. `trainer_cfg` only
    /// contributes the eval batch sizing rule (eval_batch_rows).
    multi_mask_evaluator(const sequential& prototype, const model_snapshot& pretrained,
                         const dataset& test_data, const array_config& array,
                         const fat_config& trainer_cfg);

    /// Test accuracy of the pretrained model under each fault grid, all
    /// computed in one evaluate_variants pass over the test set. Element i
    /// is byte-identical to the serial restore→mask→evaluate path for
    /// grids[i]. Grids must match the array geometry; a fault-free grid (a
    /// chip with an empty mask) is valid and evaluates the unmasked model.
    std::vector<double> evaluate(const std::vector<const fault_grid*>& grids);

private:
    std::unique_ptr<sequential> model_;  ///< pristine pretrained source
    const dataset& test_data_;
    array_config array_;
    fat_config trainer_cfg_;
    std::vector<mapped_layer> mapped_;  ///< non-owning views into model_
    /// Per mapped layer: weight element → flat PE index (row*cols + col)
    /// under the identity column mapping — the same indexing
    /// build_weight_mask performs, hoisted out of the per-chip loop.
    std::vector<std::vector<std::uint32_t>> pe_lut_;
    /// One clone of model_ per variant (grown lazily) and its mapped
    /// layers; the mapped weights hold the last group's masked values.
    std::vector<std::unique_ptr<sequential>> clones_;
    std::vector<std::vector<mapped_layer>> clone_mapped_;
    /// Per-variant faulty-PE byte grids, storage reused across calls.
    std::vector<std::vector<unsigned char>> faulty_scratch_;
};

}  // namespace reduce
