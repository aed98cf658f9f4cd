// In-memory labeled dataset and basic transforms.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/tensor.h"

namespace reduce {

/// A labeled classification dataset held in memory.
///
/// `features` is [N, D] for vector data or [N, C, H, W] for images;
/// `labels[i]` is the class of sample i.
struct dataset {
    tensor features;
    std::vector<std::size_t> labels;
    std::size_t num_classes = 0;

    /// Number of samples.
    std::size_t size() const { return labels.size(); }

    /// Validates the internal consistency (sample count, label range);
    /// throws invalid_argument_error on violation.
    void validate() const;
};

/// Train/test split by sample count.
struct dataset_split {
    dataset train;
    dataset test;
};

/// Splits a dataset: the first `train_fraction` goes to train after a
/// deterministic shuffle driven by `seed`.
dataset_split split_dataset(const dataset& data, double train_fraction, std::uint64_t seed);

/// Per-feature standardization statistics.
struct feature_stats {
    tensor mean;    ///< [D] or [C] for images
    tensor stddev;  ///< same shape; entries are >= epsilon
};

/// Computes per-feature mean/stddev over a [N, D] dataset.
feature_stats compute_feature_stats(const dataset& data);

/// Standardizes features in place using precomputed statistics
/// (apply train-set stats to both splits).
void standardize(dataset& data, const feature_stats& stats);

/// Extracts a batch (rows `begin` .. `begin+count`) of features and labels.
struct batch {
    tensor features;
    std::vector<std::size_t> labels;
};

/// Gathers an arbitrary index set into a batch.
batch gather_batch(const dataset& data, const std::vector<std::size_t>& indices);

}  // namespace reduce
