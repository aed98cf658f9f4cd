// Grouped train-step walker — K divergent model variants in lockstep.
//
// PR 4's masked-group walker batches *evaluation*: K fault masks over ONE
// shared set of pretrained weights (shared-B grouped GEMM). Training breaks
// that sharing immediately — after the first optimizer step every variant
// owns different weights AND different biases — so this walker runs the
// true grouped form: per-variant A and B operands over a variant-stacked
// batch [K*N, ...], sharing the structure that remains shareable:
//
//   * ONE batch gather and ONE stacked pass per layer — per-layer fixed
//     costs (conv lowering, scatter, allocation, fork/join) are paid once
//     per group instead of once per chip;
//   * conv lowering skips structurally-zero padding rows in BOTH directions
//     (forward activations via gemm_k_subset, backward dX/dW via the
//     compact drivers in tensor/conv.h) — on 1x1-spatial VGG tails that is
//     8/9 of the patch rows;
//   * every layer runs exactly the passes of its serial forward and
//     backward: GEMM, then a bias pass, then the relu step's own pass.
//
// Determinism contract: after forward+backward on a stacked batch, variant
// g's parameter gradients, caches, and output block are byte-identical to
// running clone g's own sequential::forward/backward on the un-stacked
// batch — at every group size and every --gemm-threads, for any operand
// values (the conv skips fall back to full rows where Inf/NaN would make
// them inexact, see tensor/conv.h). Stateful layers (dropout, batch-norm)
// are NEVER shared: each variant block is sliced out and run through that
// variant's own layer object, so RNG streams, batch statistics, and
// running stats advance exactly as they do serially. This walker is the
// layer engine of train_variants (core/fat_trainer.h) at every K >= 1.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/conv_layers.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace reduce {

/// Lockstep forward/backward driver over K structurally identical model
/// variants (clones of one prototype). The walker holds non-owning layer
/// pointers into the variants — they must outlive it and must not be
/// structurally modified while it is in use. Parameter gradients accumulate
/// into each variant's own layers, so the per-variant optimizers see
/// exactly what a serial backward would have left them.
class grouped_train_net {
public:
    /// `variants` must be non-empty and structurally identical (same layer
    /// kinds and shapes in the same order — clones of one prototype).
    explicit grouped_train_net(const std::vector<sequential*>& variants);

    std::size_t groups() const { return groups_; }

    /// Forward over a variant-stacked batch [K*N, ...] (block g = variant
    /// g's rows). Honors each variant's training mode (dropout/BN behave
    /// per variant exactly as their own layer objects dictate). Caches what
    /// backward() needs; call backward before the next training forward.
    tensor forward(const tensor& stacked);

    /// Backward of the last forward; returns the stacked input gradient and
    /// accumulates per-variant parameter gradients into the variants.
    tensor backward(const tensor& grad_stacked);

private:
    struct step {
        enum class kind : std::uint8_t {
            linear_k,
            conv_k,
            relu_k,
            flatten_k,
            max_pool_k,
            global_avg_pool_k,
            per_variant_k,  ///< dropout / batch-norm / anything stateful
        };
        kind k = kind::per_variant_k;
        std::vector<module*> mods;  ///< one per variant, same position
        // Per-step caches (valid between one forward and its backward).
        tensor cached_input;              ///< stacked input (linear/conv/relu)
        shape_t cached_shape;             ///< input shape (flatten/pools)
        std::vector<std::size_t> argmax;  ///< max-pool routing
    };

    void flatten_variants(const std::vector<sequential*>& variants);
    tensor forward_step(step& st, tensor x);
    tensor backward_step(step& st, tensor grad);

    std::size_t groups_ = 0;
    std::vector<step> steps_;
    /// Flat per-variant layer lists (position-aligned across variants).
    std::vector<std::vector<module*>> flat_;
};

}  // namespace reduce
