#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace reduce {

summary_stats summarize(std::span<const double> values) {
    REDUCE_CHECK(!values.empty(), "summarize requires a non-empty sample");
    summary_stats s;
    s.count = values.size();
    s.min = *std::min_element(values.begin(), values.end());
    s.max = *std::max_element(values.begin(), values.end());
    s.mean = mean_of(values);
    s.stddev = stddev_of(values);
    s.median = percentile_of(values, 50.0);
    return s;
}

double mean_of(std::span<const double> values) {
    REDUCE_CHECK(!values.empty(), "mean_of requires a non-empty sample");
    double sum = 0.0;
    for (const double v : values) { sum += v; }
    return sum / static_cast<double>(values.size());
}

double stddev_of(std::span<const double> values) {
    if (values.size() < 2) { return 0.0; }
    const double m = mean_of(values);
    double acc = 0.0;
    for (const double v : values) { acc += (v - m) * (v - m); }
    return std::sqrt(acc / static_cast<double>(values.size() - 1));
}

double percentile_of(std::span<const double> values, double p) {
    REDUCE_CHECK(!values.empty(), "percentile_of requires a non-empty sample");
    REDUCE_CHECK(p >= 0.0 && p <= 100.0, "percentile must be in [0,100], got " << p);
    std::vector<double> sorted(values.begin(), values.end());
    std::sort(sorted.begin(), sorted.end());
    if (sorted.size() == 1) { return sorted.front(); }
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = static_cast<std::size_t>(std::ceil(rank));
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double select_statistic(const summary_stats& stats, statistic which) {
    switch (which) {
        case statistic::min: return stats.min;
        case statistic::mean: return stats.mean;
        case statistic::max: return stats.max;
        case statistic::median: return stats.median;
    }
    throw invalid_argument_error("unknown statistic selector");
}

std::string to_string(statistic which) {
    switch (which) {
        case statistic::min: return "min";
        case statistic::mean: return "mean";
        case statistic::max: return "max";
        case statistic::median: return "median";
    }
    throw invalid_argument_error("unknown statistic selector");
}

}  // namespace reduce
