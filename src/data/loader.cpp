#include "data/loader.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace reduce {

data_loader::data_loader(const dataset& data, std::size_t batch_size, std::uint64_t seed)
    : data_(data), batch_size_(batch_size), gen_(seed) {
    data_.validate();
    REDUCE_CHECK(batch_size > 0, "batch size must be positive");
    steps_per_epoch_ = (data_.size() + batch_size_ - 1) / batch_size_;
    start_epoch();
}

void data_loader::start_epoch() {
    order_ = gen_.permutation(data_.size());
    cursor_ = 0;
}

batch data_loader::next_batch() {
    if (cursor_ >= order_.size()) { start_epoch(); }
    const std::size_t count = std::min(batch_size_, order_.size() - cursor_);
    std::vector<std::size_t> indices(order_.begin() + static_cast<std::ptrdiff_t>(cursor_),
                                     order_.begin() + static_cast<std::ptrdiff_t>(cursor_ + count));
    cursor_ += count;
    ++steps_taken_;
    return gather_batch(data_, indices);
}

std::size_t data_loader::steps_for_epochs(double epochs) const {
    REDUCE_CHECK(epochs >= 0.0, "epoch amount must be non-negative, got " << epochs);
    if (epochs == 0.0) { return 0; }
    const double steps = epochs * static_cast<double>(steps_per_epoch_);
    return std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(steps - 1e-9)));
}

data_loader::state data_loader::save_state() const {
    return state{gen_, order_, cursor_, steps_taken_};
}

void data_loader::restore_state(const state& s) {
    REDUCE_CHECK(s.order.size() == data_.size(),
                 "loader state is from a different dataset (order size "
                     << s.order.size() << " vs " << data_.size() << ")");
    gen_ = s.gen;
    order_ = s.order;
    cursor_ = s.cursor;
    steps_taken_ = s.steps_taken;
}

}  // namespace reduce
