// Weight-to-PE mapping for the weight-stationary dataflow.
//
// A layer's GEMM weight matrix W[cols = fan-out][rows = fan-in] is tiled
// over the array: tile (ti, tj) covers input rows [ti*R, ti*R+R) and output
// columns [tj*C, tj*C+C). Inside a tile, weight (i, o) sits on PE
// (i mod R, o mod C). Consequence: a faulty PE (r, c) prunes EVERY weight
// whose (fan-in mod R, fan-out mod C) equals (r, c) — across all tiles — and
// the same fault map therefore touches every layer of the network, exactly
// the coupling the Reduce paper's resilience analysis captures.
//
// An optional column permutation supports Fault-Aware Mapping (SalvageDNN):
// logical output o executes on physical column perm[o mod C] instead of
// o mod C.
#pragma once

#include <cstddef>
#include <vector>

#include "accel/array_config.h"
#include "accel/fault_grid.h"

namespace reduce {

/// Position of one weight on the physical array.
struct pe_coordinate {
    std::size_t row = 0;
    std::size_t col = 0;

    bool operator==(const pe_coordinate&) const = default;
};

/// Mapping of a [fan_out x fan_in] GEMM onto a fixed array geometry.
class gemm_mapping {
public:
    /// Identity column mapping (no FAM permutation).
    gemm_mapping(const array_config& array, std::size_t fan_in, std::size_t fan_out);

    /// With an explicit physical-column permutation of size array.cols
    /// (perm[logical] = physical); must be a bijection.
    gemm_mapping(const array_config& array, std::size_t fan_in, std::size_t fan_out,
                 std::vector<std::size_t> column_permutation);

    std::size_t fan_in() const { return fan_in_; }
    std::size_t fan_out() const { return fan_out_; }
    std::size_t array_rows() const { return rows_; }
    std::size_t array_cols() const { return cols_; }

    /// Number of tiles along fan-in / fan-out.
    std::size_t row_tiles() const { return (fan_in_ + rows_ - 1) / rows_; }
    std::size_t col_tiles() const { return (fan_out_ + cols_ - 1) / cols_; }

    /// Physical PE hosting weight (input index i, output index o).
    pe_coordinate pe_for_weight(std::size_t input_index, std::size_t output_index) const;

    /// Fraction of weights of this GEMM that land on faulty PEs.
    double masked_weight_fraction(const fault_grid& faults) const;

    /// The column permutation in effect (identity when not using FAM).
    const std::vector<std::size_t>& column_permutation() const { return perm_; }

private:
    void validate_permutation() const;

    std::size_t rows_;
    std::size_t cols_;
    std::size_t fan_in_;
    std::size_t fan_out_;
    std::vector<std::size_t> perm_;
};

}  // namespace reduce
