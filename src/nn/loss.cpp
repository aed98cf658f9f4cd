#include "nn/loss.h"

#include <cmath>

#include "tensor/ops.h"
#include "util/error.h"

namespace reduce {

loss_result cross_entropy_loss(const tensor& logits, const std::vector<std::size_t>& labels) {
    REDUCE_CHECK(logits.dim() == 2, "cross_entropy expects [N,C], got " << logits.describe());
    const std::size_t batch = logits.extent(0);
    const std::size_t classes = logits.extent(1);
    REDUCE_CHECK(labels.size() == batch,
                 "label count " << labels.size() << " != batch " << batch);
    REDUCE_CHECK(batch > 0, "cross_entropy over empty batch");

    const tensor log_probs = log_softmax_rows(logits);
    loss_result result;
    result.grad = tensor(logits.shape());
    const float* lp = log_probs.raw();
    float* g = result.grad.raw();
    const double inv_batch = 1.0 / static_cast<double>(batch);
    double loss = 0.0;
    for (std::size_t i = 0; i < batch; ++i) {
        const std::size_t label = labels[i];
        REDUCE_CHECK(label < classes, "label " << label << " out of range [0," << classes << ")");
        loss -= lp[i * classes + label];
        for (std::size_t j = 0; j < classes; ++j) {
            const float prob = std::exp(lp[i * classes + j]);
            g[i * classes + j] =
                static_cast<float>((prob - (j == label ? 1.0f : 0.0f)) * inv_batch);
        }
    }
    result.value = loss * inv_batch;
    return result;
}

}  // namespace reduce
