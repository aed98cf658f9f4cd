#include "nn/metrics.h"

#include "tensor/ops.h"
#include "util/error.h"

namespace reduce {

std::size_t correct_count(const tensor& logits, const std::vector<std::size_t>& labels) {
    const std::vector<std::size_t> predictions = argmax_rows(logits);
    REDUCE_CHECK(predictions.size() == labels.size(),
                 "prediction count " << predictions.size() << " != label count "
                                     << labels.size());
    std::size_t correct = 0;
    for (std::size_t i = 0; i < labels.size(); ++i) {
        if (predictions[i] == labels[i]) { ++correct; }
    }
    return correct;
}

double accuracy(const tensor& logits, const std::vector<std::size_t>& labels) {
    REDUCE_CHECK(!labels.empty(), "accuracy over empty batch");
    return static_cast<double>(correct_count(logits, labels)) /
           static_cast<double>(labels.size());
}

}  // namespace reduce
