// Synthetic dataset generators — the offline stand-in for CIFAR-10.
//
// The paper's experiments need a task where (a) a small model reaches
// ~93–95% clean test accuracy in a handful of epochs, so the 90/91/92%
// accuracy targets of Fig. 2b are meaningful, and (b) hundreds of retraining
// runs are affordable on one CPU core. Each generator below is fully
// deterministic given its seed.
#pragma once

#include "data/dataset.h"
#include "nn/models.h"

namespace reduce {

/// Gaussian mixture in D dimensions: one spherical cluster per class with
/// means placed deterministically on a sphere. `class_separation` scales the
/// mean radius relative to the cluster noise; ~2.2 gives ≈94% achievable
/// accuracy for the default geometry.
struct gaussian_mixture_config {
    std::size_t num_classes = 10;
    std::size_t dim = 32;
    std::size_t samples_per_class = 500;
    double class_separation = 3.6;
    double noise_stddev = 1.0;
    std::uint64_t seed = 42;
};

/// Generates the mixture dataset (features [N, dim]).
dataset make_gaussian_mixture(const gaussian_mixture_config& cfg);

/// Synthetic image classification ("synthetic CIFAR"): each class is a
/// deterministic low-frequency pattern over [C, H, W], samples add Gaussian
/// noise and a random brightness jitter. Exercises the conv path end to end.
struct synthetic_images_config {
    image_shape shape{3, 8, 8};
    std::size_t num_classes = 10;
    std::size_t samples_per_class = 120;
    double noise_stddev = 0.55;
    double brightness_jitter = 0.15;
    std::uint64_t seed = 1234;
};

/// Generates the image dataset (features [N, C, H, W]).
dataset make_synthetic_images(const synthetic_images_config& cfg);

}  // namespace reduce
