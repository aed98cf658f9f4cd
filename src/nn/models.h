// Model zoo and accelerator-mapping introspection.
//
// The experiment harnesses use small, fast models (mlp / tiny_cnn) so that
// the hundreds of retraining runs Reduce requires fit a single-core budget;
// make_vgg11 builds the paper's architecture (optionally width-scaled) for
// the examples and for full-scale runs.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/conv_layers.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "util/rng.h"

namespace reduce {

/// Multi-layer perceptron: linear/relu stacks ending in a linear classifier.
/// `dims` lists layer widths including input and output, e.g. {32,64,64,10}.
std::unique_ptr<sequential> make_mlp(const std::vector<std::size_t>& dims, rng& gen,
                                     double dropout_p = 0.0);

/// Geometry of image-model inputs.
struct image_shape {
    std::size_t channels = 1;
    std::size_t height = 8;
    std::size_t width = 8;
};

/// Small conv net: [conv-relu-pool] x 2 → flatten → linear. Fast enough for
/// per-chip retraining sweeps on image workloads.
std::unique_ptr<sequential> make_tiny_cnn(const image_shape& input, std::size_t num_classes,
                                          rng& gen, std::size_t base_channels = 8);

/// Configuration for the VGG11 builder.
struct vgg11_config {
    image_shape input{3, 32, 32};
    std::size_t num_classes = 10;
    /// Multiplies every channel count; 1.0 reproduces the standard VGG11
    /// widths (64..512), smaller values give laptop-scale variants.
    double width_multiplier = 1.0;
    bool batch_norm = false;
    double classifier_dropout = 0.0;
};

/// VGG11 (configuration "A" of Simonyan & Zisserman) adapted to the input
/// size: max-pool stages are applied only while the spatial extent remains
/// divisible, so small synthetic images work with the same topology.
std::unique_ptr<sequential> make_vgg11(const vgg11_config& cfg, rng& gen);

/// A layer whose weights are executed as a GEMM on the systolic accelerator.
///
/// rows = fan-in footprint mapped onto array rows (in_features, or
/// in_c*kh*kw for conv); cols = fan-out footprint mapped onto array columns.
struct mapped_layer {
    parameter* weight = nullptr;  ///< non-owning; the layer's weight parameter
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::string kind;  ///< "linear" or "conv2d"
};

/// Walks a model and returns every linear/conv2d layer in execution order —
/// exactly the layers whose weights land on the accelerator's PE array.
std::vector<mapped_layer> collect_mapped_layers(sequential& model);

/// Reseeds every stochastic layer (dropout) for a new retraining episode:
/// the layer at position i draws its stream from mix_seed(episode_seed, i).
/// Called per chip / per sweep cell so stochastic training is a function of
/// the episode seed alone, never of which worker ran the episode before —
/// the fix that extends the bit-identical thread-count guarantee to models
/// with dropout. Returns the number of layers reseeded.
std::size_t reseed_stochastic_layers(sequential& model, std::uint64_t episode_seed);

}  // namespace reduce
