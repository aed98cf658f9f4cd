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

}  // namespace reduce
