#include "accel/mapping.h"

#include <algorithm>

#include "util/error.h"

namespace reduce {

gemm_mapping::gemm_mapping(const array_config& array, std::size_t fan_in, std::size_t fan_out)
    : rows_(array.rows), cols_(array.cols), fan_in_(fan_in), fan_out_(fan_out) {
    REDUCE_CHECK(fan_in > 0 && fan_out > 0, "gemm dims must be positive");
    perm_.resize(cols_);
    for (std::size_t c = 0; c < cols_; ++c) { perm_[c] = c; }
}

gemm_mapping::gemm_mapping(const array_config& array, std::size_t fan_in, std::size_t fan_out,
                           std::vector<std::size_t> column_permutation)
    : rows_(array.rows),
      cols_(array.cols),
      fan_in_(fan_in),
      fan_out_(fan_out),
      perm_(std::move(column_permutation)) {
    REDUCE_CHECK(fan_in > 0 && fan_out > 0, "gemm dims must be positive");
    validate_permutation();
}

void gemm_mapping::validate_permutation() const {
    REDUCE_CHECK(perm_.size() == cols_,
                 "column permutation size " << perm_.size() << " != array cols " << cols_);
    std::vector<bool> seen(cols_, false);
    for (const std::size_t p : perm_) {
        REDUCE_CHECK(p < cols_, "permutation entry " << p << " out of range");
        REDUCE_CHECK(!seen[p], "permutation entry " << p << " repeated");
        seen[p] = true;
    }
}

pe_coordinate gemm_mapping::pe_for_weight(std::size_t input_index,
                                          std::size_t output_index) const {
    REDUCE_CHECK(input_index < fan_in_,
                 "input index " << input_index << " out of range [0," << fan_in_ << ")");
    REDUCE_CHECK(output_index < fan_out_,
                 "output index " << output_index << " out of range [0," << fan_out_ << ")");
    return {input_index % rows_, perm_[output_index % cols_]};
}

double gemm_mapping::masked_weight_fraction(const fault_grid& faults) const {
    REDUCE_CHECK(faults.rows() == rows_ && faults.cols() == cols_,
                 "fault grid " << faults.rows() << "x" << faults.cols()
                               << " does not match mapping array " << rows_ << "x" << cols_);
    std::size_t masked = 0;
    for (std::size_t o = 0; o < fan_out_; ++o) {
        const std::size_t col = perm_[o % cols_];
        for (std::size_t i = 0; i < fan_in_; ++i) {
            if (is_faulty(faults.at(i % rows_, col))) { ++masked; }
        }
    }
    return static_cast<double>(masked) / static_cast<double>(fan_in_ * fan_out_);
}

}  // namespace reduce
