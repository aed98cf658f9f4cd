// Loss functions. Each returns the scalar loss and the gradient with
// respect to the logits, ready to feed into module::backward.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace reduce {

/// Loss value plus gradient w.r.t. the network output.
struct loss_result {
    double value = 0.0;
    tensor grad;
};

/// Softmax cross-entropy with integer class labels, averaged over the batch.
/// logits: [N, C]; labels: N entries in [0, C).
loss_result cross_entropy_loss(const tensor& logits, const std::vector<std::size_t>& labels);

}  // namespace reduce
