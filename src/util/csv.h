// Small CSV table builder used by every bench harness to print the series
// that the paper's figures plot.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace reduce {

/// One CSV cell: text, integer, or floating point (printed with fixed
/// precision chosen per table).
using csv_cell = std::variant<std::string, long long, double>;

/// In-memory CSV table with a header row.
///
/// The bench binaries build one csv_table per figure/series and print it to
/// stdout so results can be piped straight into a plotting script.
class csv_table {
public:
    /// Creates a table with the given column names.
    explicit csv_table(std::vector<std::string> columns);

    /// Number of data rows.
    std::size_t row_count() const { return rows_.size(); }

    /// Number of columns.
    std::size_t column_count() const { return columns_.size(); }

    /// Appends a row; must have exactly column_count() cells.
    void add_row(std::vector<csv_cell> row);

    /// Digits after the decimal point for double cells (default 4).
    void set_precision(int digits);

    /// Writes header + rows as RFC-4180-ish CSV (quotes cells containing
    /// separators or quotes).
    void write(std::ostream& os) const;

    /// Renders the table with aligned columns for terminal output.
    void write_pretty(std::ostream& os) const;

private:
    std::string render_cell(const csv_cell& cell) const;

    std::vector<std::string> columns_;
    std::vector<std::vector<csv_cell>> rows_;
    int precision_ = 4;
};

}  // namespace reduce
