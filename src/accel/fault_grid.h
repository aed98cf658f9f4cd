// Per-PE fault state of a systolic array ("fault map" of one chip).
#pragma once

#include <cstddef>
#include <vector>

#include "accel/pe.h"

namespace reduce {

/// Dense grid of pe_fault states, one per PE.
///
/// This is the "fault map" the paper takes as per-chip input: which PEs of
/// the fabricated array are permanently faulty. The fault module layers
/// generation, serialization, and chip identity on top; the accel module
/// only needs the states themselves.
class fault_grid {
public:
    /// All-healthy grid of the given geometry.
    fault_grid(std::size_t rows, std::size_t cols);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t pe_count() const { return rows_ * cols_; }

    /// State of PE (row, col); bounds-checked.
    pe_fault at(std::size_t row, std::size_t col) const;

    /// Sets the state of PE (row, col); bounds-checked.
    void set(std::size_t row, std::size_t col, pe_fault fault);

    /// Number of non-healthy PEs.
    std::size_t faulty_count() const;

    /// Faulty fraction of the whole array, in [0, 1].
    double fault_rate() const;

    /// Number of non-healthy PEs inside the top-left sub-rectangle
    /// [0, sub_rows) x [0, sub_cols) — the region a small layer occupies.
    std::size_t faulty_count_in(std::size_t sub_rows, std::size_t sub_cols) const;

    /// Faulty fraction of that sub-rectangle.
    double fault_rate_in(std::size_t sub_rows, std::size_t sub_cols) const;

    /// Replaces every non-healthy state with `repair` (FAP turns stuck PEs
    /// into bypassed ones). Returns the number of PEs changed.
    std::size_t repair_all(pe_fault repair);

    /// Raw row-major state vector. Ref-qualified: calling on a temporary
    /// would dangle, so rvalues hand the vector out by value instead.
    const std::vector<pe_fault>& states() const& { return states_; }
    std::vector<pe_fault> states() && { return std::move(states_); }

    bool operator==(const fault_grid& other) const = default;

private:
    std::size_t index(std::size_t row, std::size_t col) const;

    std::size_t rows_;
    std::size_t cols_;
    std::vector<pe_fault> states_;
};

}  // namespace reduce
