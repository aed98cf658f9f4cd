#include "accel/fault_grid.h"

#include "util/error.h"

namespace reduce {

fault_grid::fault_grid(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), states_(rows * cols, pe_fault::healthy) {
    REDUCE_CHECK(rows > 0 && cols > 0, "fault_grid needs positive dimensions");
}

std::size_t fault_grid::index(std::size_t row, std::size_t col) const {
    REDUCE_CHECK(row < rows_ && col < cols_,
                 "PE (" << row << "," << col << ") outside " << rows_ << "x" << cols_
                        << " array");
    return row * cols_ + col;
}

pe_fault fault_grid::at(std::size_t row, std::size_t col) const {
    return states_[index(row, col)];
}

void fault_grid::set(std::size_t row, std::size_t col, pe_fault fault) {
    states_[index(row, col)] = fault;
}

std::size_t fault_grid::faulty_count() const {
    std::size_t count = 0;
    for (const pe_fault f : states_) {
        if (is_faulty(f)) { ++count; }
    }
    return count;
}

double fault_grid::fault_rate() const {
    return static_cast<double>(faulty_count()) / static_cast<double>(pe_count());
}

std::size_t fault_grid::faulty_count_in(std::size_t sub_rows, std::size_t sub_cols) const {
    REDUCE_CHECK(sub_rows <= rows_ && sub_cols <= cols_,
                 "sub-rectangle " << sub_rows << "x" << sub_cols << " exceeds array " << rows_
                                  << "x" << cols_);
    std::size_t count = 0;
    for (std::size_t r = 0; r < sub_rows; ++r) {
        for (std::size_t c = 0; c < sub_cols; ++c) {
            if (is_faulty(states_[r * cols_ + c])) { ++count; }
        }
    }
    return count;
}

double fault_grid::fault_rate_in(std::size_t sub_rows, std::size_t sub_cols) const {
    REDUCE_CHECK(sub_rows > 0 && sub_cols > 0, "sub-rectangle must be non-empty");
    return static_cast<double>(faulty_count_in(sub_rows, sub_cols)) /
           static_cast<double>(sub_rows * sub_cols);
}

std::size_t fault_grid::repair_all(pe_fault repair) {
    std::size_t changed = 0;
    for (pe_fault& f : states_) {
        if (is_faulty(f) && f != repair) {
            f = repair;
            ++changed;
        }
    }
    return changed;
}

}  // namespace reduce
