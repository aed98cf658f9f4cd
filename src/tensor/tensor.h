// Dense row-major float tensor.
//
// The numeric foundation for the NN substrate: contiguous float32 storage
// with shape metadata. Deliberately minimal — no views, no broadcasting
// machinery — because every consumer in this project operates on contiguous
// batches and explicit loops keep the single-core hot paths transparent to
// the optimizer.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace reduce {

/// Shape of a tensor: extent per dimension, outermost first.
using shape_t = std::vector<std::size_t>;

/// Renders a shape as "[2, 3, 4]" for error messages.
std::string shape_to_string(const shape_t& shape);

/// Number of elements implied by a shape (1 for rank-0).
std::size_t shape_numel(const shape_t& shape);

/// Dense row-major float tensor with value semantics.
///
/// Copying copies the buffer; moves are O(1). All indexing is bounds-checked
/// in debug-style accessors (`at`) and unchecked in the flat `data()` span
/// used by hot loops.
class tensor {
public:
    /// Empty rank-1 tensor of size 0.
    tensor() = default;

    /// Zero-initialized tensor of the given shape.
    explicit tensor(shape_t shape);

    /// Tensor of the given shape filled with `value`.
    tensor(shape_t shape, float value);

    /// Tensor of the given shape initialized from `values`
    /// (size must equal the shape's element count).
    tensor(shape_t shape, std::vector<float> values);

    /// Convenience: rank-1 tensor from an initializer list.
    static tensor from_values(std::initializer_list<float> values);

    /// Convenience: rank-2 tensor from nested initializer lists
    /// (all rows must have equal length).
    static tensor from_rows(std::initializer_list<std::initializer_list<float>> rows);

    /// Shape accessors.
    const shape_t& shape() const { return shape_; }
    std::size_t dim() const { return shape_.size(); }
    std::size_t extent(std::size_t axis) const;
    std::size_t numel() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    /// Flat storage access (row-major).
    std::span<float> data() { return std::span<float>(data_); }
    std::span<const float> data() const { return std::span<const float>(data_); }
    float* raw() { return data_.data(); }
    const float* raw() const { return data_.data(); }

    /// Flat element access without bounds checks (hot paths).
    float& operator[](std::size_t i) { return data_[i]; }
    float operator[](std::size_t i) const { return data_[i]; }

    /// Bounds-checked multi-dimensional access; throws shape_error on
    /// rank/range violations.
    float& at(std::span<const std::size_t> indices);
    float at(std::span<const std::size_t> indices) const;

    /// Rank-2 convenience accessors; throw shape_error unless dim() == 2.
    float& at2(std::size_t row, std::size_t col);
    float at2(std::size_t row, std::size_t col) const;

    /// Rank-4 convenience accessors (N, C, H, W); throw unless dim() == 4.
    float& at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w);
    float at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w) const;

    /// Sets every element to `value`.
    void fill(float value);

    /// Sets every element to zero.
    void zero() { fill(0.0f); }

    /// Returns a copy with a new shape; element count must match.
    tensor reshaped(shape_t new_shape) const;

    /// Reinterprets the shape in place; element count must match.
    void reshape(shape_t new_shape);

    /// Adopts `new_shape`, reusing the existing buffer when the element
    /// count already matches (no reallocation) and reallocating otherwise.
    /// Contents are unspecified afterwards — this is the reuse primitive for
    /// per-step cache tensors (batch-norm x̂, layer scratch) whose shape is
    /// stable across training steps.
    void ensure_shape(const shape_t& new_shape);

    /// Elementwise equality (exact float comparison).
    bool operator==(const tensor& other) const;

    /// True when shapes are equal and elements differ by at most `tol`.
    bool allclose(const tensor& other, float tol = 1e-5f) const;

    /// Sum of all elements (double accumulator).
    double sum() const;

    /// Mean of all elements; throws on empty tensors.
    double mean() const;

    /// Human-readable description "tensor[2, 3]" for diagnostics.
    std::string describe() const;

private:
    std::size_t flat_index(std::span<const std::size_t> indices) const;

    shape_t shape_{0};
    std::vector<float> data_;
};

}  // namespace reduce
