#include "data/synthetic.h"

#include <cmath>
#include <numbers>

#include "util/error.h"
#include "util/rng.h"

namespace reduce {

dataset make_gaussian_mixture(const gaussian_mixture_config& cfg) {
    REDUCE_CHECK(cfg.num_classes > 1, "gaussian mixture needs >= 2 classes");
    REDUCE_CHECK(cfg.dim > 0 && cfg.samples_per_class > 0, "gaussian mixture config is empty");
    rng gen(cfg.seed);

    // Class means: random unit directions scaled to the separation radius.
    // Drawn first so the mean geometry is independent of sample count.
    std::vector<std::vector<float>> means(cfg.num_classes, std::vector<float>(cfg.dim, 0.0f));
    for (auto& mean : means) {
        double norm_sq = 0.0;
        for (auto& coord : mean) {
            coord = static_cast<float>(gen.normal());
            norm_sq += static_cast<double>(coord) * coord;
        }
        const double norm = std::sqrt(std::max(norm_sq, 1e-12));
        const double radius = cfg.class_separation * cfg.noise_stddev;
        for (auto& coord : mean) {
            coord = static_cast<float>(coord / norm * radius);
        }
    }

    const std::size_t total = cfg.num_classes * cfg.samples_per_class;
    dataset data{tensor({total, cfg.dim}), {}, cfg.num_classes};
    data.labels.reserve(total);
    float* x = data.features.raw();
    std::size_t row = 0;
    for (std::size_t c = 0; c < cfg.num_classes; ++c) {
        for (std::size_t s = 0; s < cfg.samples_per_class; ++s, ++row) {
            for (std::size_t j = 0; j < cfg.dim; ++j) {
                x[row * cfg.dim + j] =
                    means[c][j] + static_cast<float>(gen.normal(0.0, cfg.noise_stddev));
            }
            data.labels.push_back(c);
        }
    }
    data.validate();
    return data;
}

dataset make_synthetic_images(const synthetic_images_config& cfg) {
    REDUCE_CHECK(cfg.num_classes > 1, "synthetic images need >= 2 classes");
    REDUCE_CHECK(cfg.shape.channels > 0 && cfg.shape.height > 0 && cfg.shape.width > 0,
                 "synthetic image shape is empty");
    rng gen(cfg.seed);
    const std::size_t plane = cfg.shape.height * cfg.shape.width;
    const std::size_t image_elems = cfg.shape.channels * plane;

    // Deterministic class prototypes: sums of low-frequency sinusoids whose
    // frequencies/phases depend on the class index.
    std::vector<std::vector<float>> prototypes(cfg.num_classes,
                                               std::vector<float>(image_elems, 0.0f));
    for (std::size_t c = 0; c < cfg.num_classes; ++c) {
        const double fx = 1.0 + static_cast<double>(c % 3);
        const double fy = 1.0 + static_cast<double>((c / 3) % 3);
        const double phase = 0.7 * static_cast<double>(c);
        for (std::size_t ch = 0; ch < cfg.shape.channels; ++ch) {
            const double channel_gain = 0.6 + 0.4 * std::cos(phase + 1.3 * static_cast<double>(ch));
            for (std::size_t yy = 0; yy < cfg.shape.height; ++yy) {
                for (std::size_t xx = 0; xx < cfg.shape.width; ++xx) {
                    const double u = static_cast<double>(xx) /
                                     static_cast<double>(cfg.shape.width) * 2.0 *
                                     std::numbers::pi;
                    const double v = static_cast<double>(yy) /
                                     static_cast<double>(cfg.shape.height) * 2.0 *
                                     std::numbers::pi;
                    prototypes[c][ch * plane + yy * cfg.shape.width + xx] = static_cast<float>(
                        channel_gain * (std::sin(fx * u + phase) + std::cos(fy * v - phase)));
                }
            }
        }
    }

    const std::size_t total = cfg.num_classes * cfg.samples_per_class;
    dataset data{
        tensor({total, cfg.shape.channels, cfg.shape.height, cfg.shape.width}), {},
        cfg.num_classes};
    data.labels.reserve(total);
    float* x = data.features.raw();
    std::size_t row = 0;
    for (std::size_t c = 0; c < cfg.num_classes; ++c) {
        for (std::size_t s = 0; s < cfg.samples_per_class; ++s, ++row) {
            const float gain =
                1.0f + static_cast<float>(gen.uniform(-cfg.brightness_jitter,
                                                      cfg.brightness_jitter));
            float* img = x + row * image_elems;
            for (std::size_t i = 0; i < image_elems; ++i) {
                img[i] = gain * prototypes[c][i] +
                         static_cast<float>(gen.normal(0.0, cfg.noise_stddev));
            }
            data.labels.push_back(c);
        }
    }
    data.validate();
    return data;
}

}  // namespace reduce
