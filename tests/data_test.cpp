// Tests for datasets, synthetic generators, and the step-oriented loader
// that implements fractional-epoch semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "data/loader.h"
#include "data/synthetic.h"
#include "util/error.h"

namespace reduce {
namespace {

TEST(Dataset, ValidateCatchesInconsistencies) {
    dataset d{tensor({4, 2}), {0, 1, 0}, 2};
    EXPECT_THROW(d.validate(), error);  // 4 rows, 3 labels
    d.labels = {0, 1, 0, 2};
    EXPECT_THROW(d.validate(), error);  // label 2 out of range
    d.labels = {0, 1, 0, 1};
    EXPECT_NO_THROW(d.validate());
    d.num_classes = 0;
    EXPECT_THROW(d.validate(), error);
}

TEST(SplitDataset, PartitionSizesAndDisjointness) {
    gaussian_mixture_config cfg;
    cfg.num_classes = 3;
    cfg.dim = 4;
    cfg.samples_per_class = 50;
    const dataset data = make_gaussian_mixture(cfg);
    const dataset_split split = split_dataset(data, 0.8, 11);
    EXPECT_EQ(split.train.size(), 120u);
    EXPECT_EQ(split.test.size(), 30u);
    EXPECT_EQ(split.train.num_classes, 3u);
    split.train.validate();
    split.test.validate();
}

TEST(SplitDataset, DeterministicGivenSeed) {
    gaussian_mixture_config cfg;
    cfg.num_classes = 2;
    cfg.dim = 3;
    cfg.samples_per_class = 20;
    const dataset data = make_gaussian_mixture(cfg);
    const dataset_split a = split_dataset(data, 0.7, 5);
    const dataset_split b = split_dataset(data, 0.7, 5);
    EXPECT_TRUE(a.train.features == b.train.features);
    EXPECT_EQ(a.test.labels, b.test.labels);
    const dataset_split c = split_dataset(data, 0.7, 6);
    EXPECT_FALSE(a.train.features == c.train.features);
}

TEST(SplitDataset, RejectsDegenerateFractions) {
    gaussian_mixture_config cfg;
    cfg.num_classes = 2;
    cfg.dim = 2;
    cfg.samples_per_class = 10;
    const dataset data = make_gaussian_mixture(cfg);
    EXPECT_THROW(split_dataset(data, 0.0, 1), error);
    EXPECT_THROW(split_dataset(data, 1.0, 1), error);
}

TEST(Standardize, ZeroMeanUnitVariance) {
    gaussian_mixture_config cfg;
    cfg.num_classes = 2;
    cfg.dim = 5;
    cfg.samples_per_class = 200;
    dataset data = make_gaussian_mixture(cfg);
    const feature_stats stats = compute_feature_stats(data);
    standardize(data, stats);
    const feature_stats after = compute_feature_stats(data);
    for (std::size_t j = 0; j < 5; ++j) {
        EXPECT_NEAR(after.mean[j], 0.0f, 1e-4f);
        EXPECT_NEAR(after.stddev[j], 1.0f, 1e-3f);
    }
}

TEST(GatherBatch, CopiesRowsAndLabels) {
    dataset d{tensor({3, 2}, std::vector<float>{1, 2, 3, 4, 5, 6}), {7 % 2, 1, 0}, 2};
    const batch b = gather_batch(d, {2, 0});
    EXPECT_EQ(b.features.shape(), shape_t({2, 2}));
    EXPECT_EQ(b.features[0], 5.0f);
    EXPECT_EQ(b.features[2], 1.0f);
    EXPECT_EQ(b.labels[0], 0u);
    EXPECT_THROW(gather_batch(d, {3}), error);
    EXPECT_THROW(gather_batch(d, {}), error);
}

TEST(GaussianMixture, GeneratesDeclaredShape) {
    gaussian_mixture_config cfg;
    cfg.num_classes = 5;
    cfg.dim = 7;
    cfg.samples_per_class = 11;
    const dataset data = make_gaussian_mixture(cfg);
    EXPECT_EQ(data.size(), 55u);
    EXPECT_EQ(data.features.shape(), shape_t({55, 7}));
    EXPECT_EQ(data.num_classes, 5u);
    // Exactly samples_per_class of each label.
    std::vector<std::size_t> counts(5, 0);
    for (const std::size_t l : data.labels) { ++counts[l]; }
    for (const std::size_t c : counts) { EXPECT_EQ(c, 11u); }
}

TEST(GaussianMixture, SeedControlsContent) {
    gaussian_mixture_config cfg;
    cfg.num_classes = 2;
    cfg.dim = 3;
    cfg.samples_per_class = 10;
    const dataset a = make_gaussian_mixture(cfg);
    const dataset b = make_gaussian_mixture(cfg);
    EXPECT_TRUE(a.features == b.features);
    cfg.seed = 43;
    const dataset c = make_gaussian_mixture(cfg);
    EXPECT_FALSE(a.features == c.features);
}

TEST(GaussianMixture, SeparationControlsSpread) {
    // Class-mean norm should scale with the separation parameter.
    gaussian_mixture_config near_cfg;
    near_cfg.num_classes = 2;
    near_cfg.dim = 8;
    near_cfg.samples_per_class = 400;
    near_cfg.class_separation = 1.0;
    gaussian_mixture_config far_cfg = near_cfg;
    far_cfg.class_separation = 6.0;

    const auto class_mean_norm = [](const dataset& d, std::size_t cls) {
        const std::size_t dim = d.features.extent(1);
        std::vector<double> mean(dim, 0.0);
        std::size_t count = 0;
        for (std::size_t i = 0; i < d.size(); ++i) {
            if (d.labels[i] != cls) { continue; }
            for (std::size_t j = 0; j < dim; ++j) { mean[j] += d.features[i * dim + j]; }
            ++count;
        }
        double norm_sq = 0.0;
        for (double& m : mean) {
            m /= static_cast<double>(count);
            norm_sq += m * m;
        }
        return std::sqrt(norm_sq);
    };
    const dataset near_data = make_gaussian_mixture(near_cfg);
    const dataset far_data = make_gaussian_mixture(far_cfg);
    EXPECT_GT(class_mean_norm(far_data, 0), 2.0 * class_mean_norm(near_data, 0));
}

TEST(SyntheticImages, ShapeAndDeterminism) {
    synthetic_images_config cfg;
    cfg.num_classes = 3;
    cfg.samples_per_class = 5;
    const dataset a = make_synthetic_images(cfg);
    EXPECT_EQ(a.features.shape(),
              shape_t({15, cfg.shape.channels, cfg.shape.height, cfg.shape.width}));
    const dataset b = make_synthetic_images(cfg);
    EXPECT_TRUE(a.features == b.features);
}

TEST(Loader, StepsPerEpochCeil) {
    gaussian_mixture_config cfg;
    cfg.num_classes = 2;
    cfg.dim = 2;
    cfg.samples_per_class = 25;  // 50 samples
    const dataset data = make_gaussian_mixture(cfg);
    const data_loader loader(data, 16, 1);
    EXPECT_EQ(loader.steps_per_epoch(), 4u);  // ceil(50/16)
}

TEST(Loader, EpochCoversEverySampleOnce) {
    gaussian_mixture_config cfg;
    cfg.num_classes = 2;
    cfg.dim = 2;
    cfg.samples_per_class = 20;
    const dataset data = make_gaussian_mixture(cfg);
    data_loader loader(data, 8, 2);
    std::multiset<float> seen;
    for (std::size_t s = 0; s < loader.steps_per_epoch(); ++s) {
        const batch b = loader.next_batch();
        for (std::size_t i = 0; i < b.labels.size(); ++i) {
            seen.insert(b.features[i * 2]);  // first feature as fingerprint
        }
    }
    EXPECT_EQ(seen.size(), data.size());
    std::multiset<float> expected;
    for (std::size_t i = 0; i < data.size(); ++i) { expected.insert(data.features[i * 2]); }
    EXPECT_EQ(seen, expected);
}

TEST(Loader, StepsForEpochsSemantics) {
    gaussian_mixture_config cfg;
    cfg.num_classes = 2;
    cfg.dim = 2;
    cfg.samples_per_class = 32;  // 64 samples, batch 16 → 4 steps/epoch
    const dataset data = make_gaussian_mixture(cfg);
    const data_loader loader(data, 16, 3);
    EXPECT_EQ(loader.steps_for_epochs(0.0), 0u);
    EXPECT_EQ(loader.steps_for_epochs(1.0), 4u);
    EXPECT_EQ(loader.steps_for_epochs(0.5), 2u);
    EXPECT_EQ(loader.steps_for_epochs(0.05), 1u);  // minimum one step
    EXPECT_EQ(loader.steps_for_epochs(2.25), 9u);
}

TEST(Loader, ReshufflesBetweenEpochs) {
    gaussian_mixture_config cfg;
    cfg.num_classes = 2;
    cfg.dim = 2;
    cfg.samples_per_class = 32;
    const dataset data = make_gaussian_mixture(cfg);
    data_loader loader(data, 64, 6);  // one step per epoch
    const batch epoch1 = loader.next_batch();
    const batch epoch2 = loader.next_batch();
    EXPECT_FALSE(epoch1.features == epoch2.features);  // different order
}

TEST(Loader, RejectsZeroBatch) {
    gaussian_mixture_config cfg;
    cfg.num_classes = 2;
    cfg.dim = 2;
    cfg.samples_per_class = 4;
    const dataset data = make_gaussian_mixture(cfg);
    EXPECT_THROW(data_loader(data, 0, 1), error);
}

}  // namespace
}  // namespace reduce
