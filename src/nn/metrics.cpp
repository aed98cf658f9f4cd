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

confusion_matrix::confusion_matrix(std::size_t num_classes)
    : num_classes_(num_classes), counts_(num_classes * num_classes, 0) {
    REDUCE_CHECK(num_classes > 0, "confusion matrix needs at least one class");
}

void confusion_matrix::add_batch(const tensor& logits, const std::vector<std::size_t>& labels) {
    const std::vector<std::size_t> predictions = argmax_rows(logits);
    REDUCE_CHECK(predictions.size() == labels.size(), "confusion matrix batch size mismatch");
    for (std::size_t i = 0; i < labels.size(); ++i) {
        REDUCE_CHECK(labels[i] < num_classes_ && predictions[i] < num_classes_,
                     "class index out of range in confusion matrix");
        ++counts_[labels[i] * num_classes_ + predictions[i]];
        ++total_;
        if (labels[i] == predictions[i]) { ++correct_; }
    }
}

std::size_t confusion_matrix::count(std::size_t truth, std::size_t predicted) const {
    REDUCE_CHECK(truth < num_classes_ && predicted < num_classes_,
                 "confusion matrix index out of range");
    return counts_[truth * num_classes_ + predicted];
}

double confusion_matrix::overall_accuracy() const {
    if (total_ == 0) { return 0.0; }
    return static_cast<double>(correct_) / static_cast<double>(total_);
}

std::vector<double> confusion_matrix::per_class_recall() const {
    std::vector<double> recall(num_classes_, 0.0);
    for (std::size_t t = 0; t < num_classes_; ++t) {
        std::size_t row_total = 0;
        for (std::size_t p = 0; p < num_classes_; ++p) { row_total += count(t, p); }
        if (row_total > 0) {
            recall[t] = static_cast<double>(count(t, t)) / static_cast<double>(row_total);
        }
    }
    return recall;
}

}  // namespace reduce
