// Standard experiment workload shared by benches, examples, and tests.
//
// Bundles the substitution described in DESIGN.md: a synthetic
// classification task tuned so a small MLP reaches ≈94% clean test accuracy
// in a few epochs (making the paper's 90/91/92% accuracy targets
// meaningful), plus the pre-trained snapshot every per-chip retraining run
// starts from, and the 256x256 accelerator the paper assumes.
#pragma once

#include <memory>

#include "accel/array_config.h"
#include "core/fat_trainer.h"
#include "data/synthetic.h"
#include "nn/serialize.h"

namespace reduce {

/// Knobs of the standard workload.
struct workload_config {
    gaussian_mixture_config data{};
    std::vector<std::size_t> hidden{64, 64};
    double train_fraction = 0.7;
    double pretrain_epochs = 20.0;
    fat_config trainer{};
    array_config array{};  ///< paper default: 256x256
    std::uint64_t seed = 42;
};

/// A ready-to-experiment bundle.
struct workload {
    dataset train_data;
    dataset test_data;
    std::unique_ptr<sequential> model;
    model_snapshot pretrained;
    double clean_accuracy = 0.0;  ///< test accuracy of the pretrained model
    array_config array;
    fat_config trainer_cfg;
    /// Identity string for Step-1 caching/merging (resilience_config::
    /// context): names the architecture, data geometry, and workload seed —
    /// what a resilience_config cannot see.
    std::string context;
};

/// Identity string of the workload a config describes (architecture, data
/// geometry, seed) — what `make_standard_workload` stores in
/// `workload::context`, computable *without* paying for pretraining. Lets
/// cache-aware harnesses probe the Step-1 cache before building anything.
std::string workload_context(const workload_config& cfg = {});

/// Builds datasets, trains the model from scratch, and snapshots it.
/// Deterministic given cfg. Takes a few hundred milliseconds at defaults.
workload make_standard_workload(const workload_config& cfg = {});

/// Smaller/faster variant used by unit tests (lower accuracy ceiling).
workload_config make_test_workload_config();

/// Knobs of the convolutional (image) workload variant.
struct image_workload_config {
    synthetic_images_config data{};
    std::size_t base_channels = 8;
    double train_fraction = 0.75;
    double pretrain_epochs = 12.0;
    fat_config trainer{};
    array_config array{};
    std::uint64_t seed = 4242;
};

/// `workload_context` counterpart for the image workload.
std::string image_workload_context(const image_workload_config& cfg = {});

/// Same bundle built around a tiny CNN on the synthetic-image task —
/// exercises conv2d masking (patch-dimension mapping) through the whole
/// pipeline. Slower per epoch than the MLP workload; the conv pipeline
/// tests use it.
workload make_image_workload(const image_workload_config& cfg = {});

}  // namespace reduce
