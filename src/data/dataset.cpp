#include "data/dataset.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "util/rng.h"

namespace reduce {

void dataset::validate() const {
    REDUCE_CHECK(features.dim() >= 2, "dataset features must be at least rank-2");
    REDUCE_CHECK(features.extent(0) == labels.size(),
                 "dataset has " << features.extent(0) << " feature rows but " << labels.size()
                                << " labels");
    REDUCE_CHECK(num_classes > 0, "dataset must declare num_classes");
    for (const std::size_t label : labels) {
        REDUCE_CHECK(label < num_classes,
                     "label " << label << " out of range [0," << num_classes << ")");
    }
}

dataset_split split_dataset(const dataset& data, double train_fraction, std::uint64_t seed) {
    data.validate();
    REDUCE_CHECK(train_fraction > 0.0 && train_fraction < 1.0,
                 "train_fraction must be in (0,1), got " << train_fraction);
    rng gen(seed);
    const std::vector<std::size_t> order = gen.permutation(data.size());
    const std::size_t train_count =
        static_cast<std::size_t>(std::lround(train_fraction * static_cast<double>(data.size())));
    REDUCE_CHECK(train_count > 0 && train_count < data.size(),
                 "split leaves an empty partition (train_count=" << train_count << ")");

    const std::vector<std::size_t> train_idx(order.begin(),
                                             order.begin() + static_cast<std::ptrdiff_t>(train_count));
    const std::vector<std::size_t> test_idx(order.begin() + static_cast<std::ptrdiff_t>(train_count),
                                            order.end());
    dataset_split split;
    batch train_b = gather_batch(data, train_idx);
    batch test_b = gather_batch(data, test_idx);
    split.train = dataset{std::move(train_b.features), std::move(train_b.labels),
                          data.num_classes};
    split.test = dataset{std::move(test_b.features), std::move(test_b.labels), data.num_classes};
    return split;
}

feature_stats compute_feature_stats(const dataset& data) {
    data.validate();
    REDUCE_CHECK(data.features.dim() == 2, "compute_feature_stats expects [N,D] features");
    const std::size_t n = data.features.extent(0);
    const std::size_t d = data.features.extent(1);
    feature_stats stats{tensor({d}), tensor({d})};
    const float* x = data.features.raw();
    for (std::size_t j = 0; j < d; ++j) {
        double mean = 0.0;
        for (std::size_t i = 0; i < n; ++i) { mean += x[i * d + j]; }
        mean /= static_cast<double>(n);
        double var = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const double diff = x[i * d + j] - mean;
            var += diff * diff;
        }
        var /= static_cast<double>(n);
        stats.mean[j] = static_cast<float>(mean);
        stats.stddev[j] = static_cast<float>(std::max(std::sqrt(var), 1e-6));
    }
    return stats;
}

void standardize(dataset& data, const feature_stats& stats) {
    REDUCE_CHECK(data.features.dim() == 2, "standardize expects [N,D] features");
    const std::size_t n = data.features.extent(0);
    const std::size_t d = data.features.extent(1);
    REDUCE_CHECK(stats.mean.numel() == d && stats.stddev.numel() == d,
                 "feature stats dim mismatch");
    float* x = data.features.raw();
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < d; ++j) {
            x[i * d + j] = (x[i * d + j] - stats.mean[j]) / stats.stddev[j];
        }
    }
}

batch gather_batch(const dataset& data, const std::vector<std::size_t>& indices) {
    REDUCE_CHECK(!indices.empty(), "gather_batch with empty index set");
    const std::size_t row_elems = data.features.numel() / data.features.extent(0);
    shape_t shape = data.features.shape();
    shape[0] = indices.size();
    batch out{tensor(shape), {}};
    out.labels.reserve(indices.size());
    const float* src = data.features.raw();
    float* dst = out.features.raw();
    for (std::size_t k = 0; k < indices.size(); ++k) {
        const std::size_t idx = indices[k];
        REDUCE_CHECK(idx < data.size(), "gather index " << idx << " out of range");
        std::copy(src + idx * row_elems, src + (idx + 1) * row_elems, dst + k * row_elems);
        out.labels.push_back(data.labels[idx]);
    }
    return out;
}

}  // namespace reduce
