#include "nn/models.h"

#include <algorithm>
#include <cmath>

#include "nn/norm.h"
#include "util/error.h"

namespace reduce {

std::unique_ptr<sequential> make_mlp(const std::vector<std::size_t>& dims, rng& gen,
                                     double dropout_p) {
    REDUCE_CHECK(dims.size() >= 2, "mlp needs at least input and output dims");
    auto model = std::make_unique<sequential>();
    for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
        model->emplace<linear>(dims[i], dims[i + 1], gen);
        const bool last = (i + 2 == dims.size());
        if (!last) {
            model->emplace<relu_layer>();
            if (dropout_p > 0.0) { model->emplace<dropout>(dropout_p, gen.next_u64()); }
        }
    }
    return model;
}

std::unique_ptr<sequential> make_tiny_cnn(const image_shape& input, std::size_t num_classes,
                                          rng& gen, std::size_t base_channels) {
    REDUCE_CHECK(num_classes > 0, "tiny_cnn needs at least one class");
    REDUCE_CHECK(base_channels > 0, "tiny_cnn needs positive base_channels");
    REDUCE_CHECK(input.height >= 4 && input.width >= 4,
                 "tiny_cnn needs at least 4x4 input, got " << input.height << "x" << input.width);
    auto model = std::make_unique<sequential>();
    conv2d_spec c1{input.channels, base_channels, 3, 3, 1, 1};
    model->emplace<conv2d_layer>(c1, gen);
    model->emplace<relu_layer>();
    model->emplace<max_pool2d_layer>(pool2d_spec{2, 2});
    conv2d_spec c2{base_channels, base_channels * 2, 3, 3, 1, 1};
    model->emplace<conv2d_layer>(c2, gen);
    model->emplace<relu_layer>();
    model->emplace<max_pool2d_layer>(pool2d_spec{2, 2});
    model->emplace<flatten>();
    const std::size_t spatial = (input.height / 4) * (input.width / 4);
    model->emplace<linear>(base_channels * 2 * spatial, num_classes, gen);
    return model;
}

namespace {

std::size_t scaled(std::size_t channels, double mult) {
    return std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(
                                        static_cast<double>(channels) * mult)));
}

}  // namespace

std::unique_ptr<sequential> make_vgg11(const vgg11_config& cfg, rng& gen) {
    REDUCE_CHECK(cfg.num_classes > 0, "vgg11 needs at least one class");
    REDUCE_CHECK(cfg.width_multiplier > 0.0, "vgg11 width multiplier must be positive");
    // VGG11 "A": 64, M, 128, M, 256, 256, M, 512, 512, M, 512, 512, M.
    struct stage {
        std::size_t channels;
        bool pool_after;
    };
    const std::vector<stage> stages = {
        {64, true}, {128, true}, {256, false}, {256, true},
        {512, false}, {512, true}, {512, false}, {512, true},
    };

    auto model = std::make_unique<sequential>();
    std::size_t in_c = cfg.input.channels;
    std::size_t h = cfg.input.height;
    std::size_t w = cfg.input.width;
    for (const stage& s : stages) {
        const std::size_t out_c = scaled(s.channels, cfg.width_multiplier);
        conv2d_spec spec{in_c, out_c, 3, 3, 1, 1};
        model->emplace<conv2d_layer>(spec, gen);
        if (cfg.batch_norm) { model->emplace<batch_norm2d>(out_c); }
        model->emplace<relu_layer>();
        // Pool only while the spatial extent stays divisible — lets the same
        // topology run on 8x8 synthetic images and 32x32 CIFAR-shaped inputs.
        if (s.pool_after && h >= 2 && w >= 2 && h % 2 == 0 && w % 2 == 0) {
            model->emplace<max_pool2d_layer>(pool2d_spec{2, 2});
            h /= 2;
            w /= 2;
        }
        in_c = out_c;
    }
    model->emplace<flatten>();
    if (cfg.classifier_dropout > 0.0) {
        model->emplace<dropout>(cfg.classifier_dropout, gen.next_u64());
    }
    model->emplace<linear>(in_c * h * w, cfg.num_classes, gen);
    return model;
}

std::size_t reseed_stochastic_layers(sequential& model, std::uint64_t episode_seed) {
    std::size_t reseeded = 0;
    for (std::size_t i = 0; i < model.size(); ++i) {
        module& layer = model.layer(i);
        if (auto* drop = dynamic_cast<dropout*>(&layer)) {
            drop->reseed(mix_seed(episode_seed, i));
            ++reseeded;
        } else if (auto* inner = dynamic_cast<sequential*>(&layer)) {
            // Nested containers fold their own layer positions; mixing the
            // outer position in keeps streams distinct across nesting.
            reseeded += reseed_stochastic_layers(*inner, mix_seed(episode_seed, i));
        }
    }
    return reseeded;
}

std::vector<mapped_layer> collect_mapped_layers(sequential& model) {
    std::vector<mapped_layer> mapped;
    for (std::size_t i = 0; i < model.size(); ++i) {
        module& layer = model.layer(i);
        if (auto* fc = dynamic_cast<linear*>(&layer)) {
            mapped.push_back(
                {&fc->weight(), fc->in_features(), fc->out_features(), "linear"});
        } else if (auto* conv = dynamic_cast<conv2d_layer*>(&layer)) {
            mapped.push_back({&conv->weight(), conv->spec().patch_size(),
                              conv->spec().out_channels, "conv2d"});
        } else if (auto* inner = dynamic_cast<sequential*>(&layer)) {
            const std::vector<mapped_layer> nested = collect_mapped_layers(*inner);
            mapped.insert(mapped.end(), nested.begin(), nested.end());
        }
    }
    return mapped;
}

}  // namespace reduce
