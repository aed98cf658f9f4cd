// Classification metrics.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/tensor.h"

namespace reduce {

/// Fraction of rows whose argmax matches the label, in [0, 1].
double accuracy(const tensor& logits, const std::vector<std::size_t>& labels);

/// Count of correct top-1 predictions.
std::size_t correct_count(const tensor& logits, const std::vector<std::size_t>& labels);

/// Row-normalized confusion matrix helper.
class confusion_matrix {
public:
    explicit confusion_matrix(std::size_t num_classes);

    /// Accumulates a batch of predictions.
    void add_batch(const tensor& logits, const std::vector<std::size_t>& labels);

    /// Raw count of (true=row, predicted=col).
    std::size_t count(std::size_t truth, std::size_t predicted) const;

    /// Overall accuracy over everything accumulated; 0 when empty.
    double overall_accuracy() const;

    /// Per-class recall (diagonal / row sum); 0 for empty classes.
    std::vector<double> per_class_recall() const;

    /// Total samples accumulated.
    std::size_t total() const { return total_; }

    std::size_t num_classes() const { return num_classes_; }

private:
    std::size_t num_classes_;
    std::vector<std::size_t> counts_;  ///< row-major [truth][predicted]
    std::size_t total_ = 0;
    std::size_t correct_ = 0;
};

}  // namespace reduce
