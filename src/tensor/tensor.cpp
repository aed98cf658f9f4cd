#include "tensor/tensor.h"

#include <cmath>
#include <sstream>

#include "util/error.h"

namespace reduce {

std::string shape_to_string(const shape_t& shape) {
    std::ostringstream oss;
    oss << '[';
    for (std::size_t i = 0; i < shape.size(); ++i) {
        if (i > 0) { oss << ", "; }
        oss << shape[i];
    }
    oss << ']';
    return oss.str();
}

std::size_t shape_numel(const shape_t& shape) {
    std::size_t n = 1;
    for (const std::size_t extent : shape) { n *= extent; }
    return n;
}

tensor::tensor(shape_t shape)
    : shape_(std::move(shape)), data_(shape_numel(shape_), 0.0f) {}

tensor::tensor(shape_t shape, float value)
    : shape_(std::move(shape)), data_(shape_numel(shape_), value) {}

tensor::tensor(shape_t shape, std::vector<float> values)
    : shape_(std::move(shape)), data_(std::move(values)) {
    REDUCE_CHECK(data_.size() == shape_numel(shape_),
                 "value count " << data_.size() << " does not match shape "
                                << shape_to_string(shape_));
}

tensor tensor::from_values(std::initializer_list<float> values) {
    return tensor({values.size()}, std::vector<float>(values));
}

tensor tensor::from_rows(std::initializer_list<std::initializer_list<float>> rows) {
    REDUCE_CHECK(rows.size() > 0, "from_rows requires at least one row");
    const std::size_t cols = rows.begin()->size();
    std::vector<float> values;
    values.reserve(rows.size() * cols);
    for (const auto& row : rows) {
        REDUCE_CHECK(row.size() == cols, "from_rows requires equal-length rows");
        values.insert(values.end(), row.begin(), row.end());
    }
    return tensor({rows.size(), cols}, std::move(values));
}

std::size_t tensor::extent(std::size_t axis) const {
    REDUCE_CHECK(axis < shape_.size(),
                 "axis " << axis << " out of range for " << describe());
    return shape_[axis];
}

std::size_t tensor::flat_index(std::span<const std::size_t> indices) const {
    if (indices.size() != shape_.size()) {
        throw shape_error("index rank " + std::to_string(indices.size()) +
                          " does not match tensor rank " + std::to_string(shape_.size()));
    }
    std::size_t flat = 0;
    for (std::size_t axis = 0; axis < shape_.size(); ++axis) {
        if (indices[axis] >= shape_[axis]) {
            throw shape_error("index " + std::to_string(indices[axis]) + " out of range on axis " +
                              std::to_string(axis) + " of " + describe());
        }
        flat = flat * shape_[axis] + indices[axis];
    }
    return flat;
}

float& tensor::at(std::span<const std::size_t> indices) { return data_[flat_index(indices)]; }

float tensor::at(std::span<const std::size_t> indices) const {
    return data_[flat_index(indices)];
}

float& tensor::at2(std::size_t row, std::size_t col) {
    const std::size_t idx[] = {row, col};
    return at(idx);
}

float tensor::at2(std::size_t row, std::size_t col) const {
    const std::size_t idx[] = {row, col};
    return at(idx);
}

float& tensor::at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w) {
    const std::size_t idx[] = {n, c, h, w};
    return at(idx);
}

float tensor::at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w) const {
    const std::size_t idx[] = {n, c, h, w};
    return at(idx);
}

void tensor::fill(float value) {
    for (auto& element : data_) { element = value; }
}

tensor tensor::reshaped(shape_t new_shape) const {
    tensor copy = *this;
    copy.reshape(std::move(new_shape));
    return copy;
}

void tensor::reshape(shape_t new_shape) {
    REDUCE_CHECK(shape_numel(new_shape) == data_.size(),
                 "cannot reshape " << describe() << " to " << shape_to_string(new_shape));
    shape_ = std::move(new_shape);
}

void tensor::ensure_shape(const shape_t& new_shape) {
    const std::size_t needed = shape_numel(new_shape);
    if (needed != data_.size()) { data_.resize(needed); }
    shape_ = new_shape;
}

bool tensor::operator==(const tensor& other) const {
    return shape_ == other.shape_ && data_ == other.data_;
}

bool tensor::allclose(const tensor& other, float tol) const {
    if (shape_ != other.shape_) { return false; }
    for (std::size_t i = 0; i < data_.size(); ++i) {
        if (std::abs(data_[i] - other.data_[i]) > tol) { return false; }
    }
    return true;
}

double tensor::sum() const {
    double acc = 0.0;
    for (const float v : data_) { acc += v; }
    return acc;
}

double tensor::mean() const {
    REDUCE_CHECK(!data_.empty(), "mean of empty tensor");
    return sum() / static_cast<double>(data_.size());
}

std::string tensor::describe() const {
    return "tensor" + shape_to_string(shape_);
}

}  // namespace reduce
