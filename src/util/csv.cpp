#include "util/csv.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/error.h"

namespace reduce {

csv_table::csv_table(std::vector<std::string> columns) : columns_(std::move(columns)) {
    REDUCE_CHECK(!columns_.empty(), "csv_table needs at least one column");
}

void csv_table::add_row(std::vector<csv_cell> row) {
    REDUCE_CHECK(row.size() == columns_.size(),
                 "row has " << row.size() << " cells, table has " << columns_.size()
                            << " columns");
    rows_.push_back(std::move(row));
}

void csv_table::set_precision(int digits) {
    REDUCE_CHECK(digits >= 0 && digits <= 17, "precision out of range: " << digits);
    precision_ = digits;
}

std::string csv_table::render_cell(const csv_cell& cell) const {
    if (const auto* text = std::get_if<std::string>(&cell)) { return *text; }
    if (const auto* integer = std::get_if<long long>(&cell)) {
        return std::to_string(*integer);
    }
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision_) << std::get<double>(cell);
    return oss.str();
}

namespace {

std::string escape_csv(const std::string& text) {
    const bool needs_quotes =
        text.find_first_of(",\"\n") != std::string::npos;
    if (!needs_quotes) { return text; }
    std::string quoted = "\"";
    for (const char c : text) {
        if (c == '"') { quoted += '"'; }
        quoted += c;
    }
    quoted += '"';
    return quoted;
}

}  // namespace

void csv_table::write(std::ostream& os) const {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
        if (c > 0) { os << ','; }
        os << escape_csv(columns_[c]);
    }
    os << '\n';
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (c > 0) { os << ','; }
            os << escape_csv(render_cell(row[c]));
        }
        os << '\n';
    }
}

void csv_table::write_pretty(std::ostream& os) const {
    std::vector<std::size_t> widths(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c) { widths[c] = columns_[c].size(); }
    std::vector<std::vector<std::string>> rendered;
    rendered.reserve(rows_.size());
    for (const auto& row : rows_) {
        std::vector<std::string> cells;
        cells.reserve(row.size());
        for (std::size_t c = 0; c < row.size(); ++c) {
            cells.push_back(render_cell(row[c]));
            widths[c] = std::max(widths[c], cells.back().size());
        }
        rendered.push_back(std::move(cells));
    }
    const auto print_row = [&](const std::vector<std::string>& cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            os << "  " << std::setw(static_cast<int>(widths[c])) << cells[c];
        }
        os << '\n';
    };
    print_row(columns_);
    for (const auto& cells : rendered) { print_row(cells); }
}

}  // namespace reduce
