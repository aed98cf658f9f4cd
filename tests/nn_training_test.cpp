// End-to-end learning tests: models actually fit the synthetic tasks, both
// clean and under fault masks (the capability FAT depends on).
#include <gtest/gtest.h>

#include "data/loader.h"
#include "data/synthetic.h"
#include "nn/loss.h"
#include "nn/metrics.h"
#include "nn/models.h"
#include "nn/optim.h"
#include "util/rng.h"

namespace reduce {
namespace {

double train_and_eval(sequential& model, const dataset& train, const dataset& test,
                      std::size_t steps, double lr) {
    data_loader loader(train, 32, 5);
    sgd opt(model.parameters(), {.learning_rate = lr, .momentum = 0.9});
    model.set_training(true);
    for (std::size_t s = 0; s < steps; ++s) {
        const batch b = loader.next_batch();
        const loss_result loss = cross_entropy_loss(model.forward(b.features), b.labels);
        opt.zero_grad();
        model.backward(loss.grad);
        opt.step();
    }
    model.set_training(false);
    std::vector<std::size_t> all(test.size());
    for (std::size_t i = 0; i < all.size(); ++i) { all[i] = i; }
    const batch full = gather_batch(test, all);
    return accuracy(model.forward(full.features), full.labels);
}

TEST(Training, MlpLearnsGaussianMixture) {
    gaussian_mixture_config cfg;
    cfg.num_classes = 4;
    cfg.dim = 8;
    cfg.samples_per_class = 150;
    cfg.class_separation = 4.0;
    const dataset data = make_gaussian_mixture(cfg);
    const dataset_split split = split_dataset(data, 0.8, 3);

    rng gen(1);
    auto model = make_mlp({8, 32, 4}, gen);
    const double acc = train_and_eval(*model, split.train, split.test, 150, 0.05);
    EXPECT_GT(acc, 0.9) << "MLP failed to learn a well-separated mixture";
}

TEST(Training, TinyCnnLearnsSyntheticImages) {
    synthetic_images_config cfg;
    cfg.num_classes = 4;
    cfg.samples_per_class = 60;
    cfg.noise_stddev = 0.4;
    const dataset data = make_synthetic_images(cfg);
    const dataset_split split = split_dataset(data, 0.8, 3);

    rng gen(4);
    auto model = make_tiny_cnn(cfg.shape, cfg.num_classes, gen, 6);
    const double acc = train_and_eval(*model, split.train, split.test, 200, 0.03);
    EXPECT_GT(acc, 0.85) << "tiny CNN failed to learn pattern images";
}

TEST(Training, MaskedModelStillLearns) {
    // The core premise of FAP+T: even with a sizeable fraction of weights
    // pinned to zero, retraining recovers accuracy.
    gaussian_mixture_config cfg;
    cfg.num_classes = 4;
    cfg.dim = 8;
    cfg.samples_per_class = 150;
    cfg.class_separation = 4.0;
    const dataset data = make_gaussian_mixture(cfg);
    const dataset_split split = split_dataset(data, 0.8, 3);

    rng gen(5);
    auto model = make_mlp({8, 32, 4}, gen);
    // Mask ~20% of every weight matrix, deterministically.
    rng mask_gen(99);
    for (parameter* p : model->parameters()) {
        if (p->value.dim() != 2) { continue; }
        tensor mask(p->value.shape(), 1.0f);
        for (float& v : mask.data()) {
            if (mask_gen.bernoulli(0.2)) { v = 0.0f; }
        }
        p->mask = std::move(mask);
        p->apply_mask();
    }
    const double acc = train_and_eval(*model, split.train, split.test, 200, 0.05);
    EXPECT_GT(acc, 0.85) << "masked MLP failed to recover";
    // And the invariant held throughout training:
    for (parameter* p : model->parameters()) {
        if (!p->has_mask()) { continue; }
        for (std::size_t i = 0; i < p->value.numel(); ++i) {
            if (p->mask[i] == 0.0f) { EXPECT_EQ(p->value[i], 0.0f); }
        }
    }
}

TEST(Training, LossDecreasesOnAverage) {
    gaussian_mixture_config cfg;
    cfg.num_classes = 3;
    cfg.dim = 6;
    cfg.samples_per_class = 100;
    const dataset data = make_gaussian_mixture(cfg);

    rng gen(6);
    auto model = make_mlp({6, 16, 3}, gen);
    data_loader loader(data, 32, 7);
    sgd opt(model->parameters(), {.learning_rate = 0.05, .momentum = 0.9});
    double first_losses = 0.0;
    double last_losses = 0.0;
    const int steps = 120;
    for (int s = 0; s < steps; ++s) {
        const batch b = loader.next_batch();
        const loss_result loss = cross_entropy_loss(model->forward(b.features), b.labels);
        opt.zero_grad();
        model->backward(loss.grad);
        opt.step();
        if (s < 10) { first_losses += loss.value; }
        if (s >= steps - 10) { last_losses += loss.value; }
    }
    EXPECT_LT(last_losses, first_losses * 0.5);
}

TEST(Training, DeterministicGivenSeeds) {
    gaussian_mixture_config cfg;
    cfg.num_classes = 3;
    cfg.dim = 6;
    cfg.samples_per_class = 80;
    const dataset data = make_gaussian_mixture(cfg);
    const dataset_split split = split_dataset(data, 0.8, 3);

    const auto run = [&]() {
        rng gen(7);
        auto model = make_mlp({6, 16, 3}, gen);
        return train_and_eval(*model, split.train, split.test, 100, 0.05);
    };
    EXPECT_DOUBLE_EQ(run(), run());
}

}  // namespace
}  // namespace reduce
