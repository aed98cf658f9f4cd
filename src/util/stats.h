// Descriptive statistics used by the resilience analysis and reports.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace reduce {

/// Summary of a sample: the statistics the paper reports for epoch counts
/// (min / mean / max over repeats) plus spread measures for reports.
struct summary_stats {
    std::size_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double stddev = 0.0;  ///< sample standard deviation (n-1), 0 if count < 2
    double median = 0.0;
};

/// Computes summary statistics over a sample. Requires a non-empty sample.
summary_stats summarize(std::span<const double> values);

/// Arithmetic mean. Requires a non-empty sample.
double mean_of(std::span<const double> values);

/// Sample standard deviation (n-1 denominator); 0 for samples of size < 2.
double stddev_of(std::span<const double> values);

/// Linear-interpolated percentile, p in [0, 100]. Requires non-empty sample.
double percentile_of(std::span<const double> values, double p);

/// Named statistic selectors for the retraining-amount policy (paper §III-B:
/// "we propose to use the maximum reported values").
enum class statistic {
    min,
    mean,
    max,
    median,
};

/// Extracts the chosen statistic from a summary.
double select_statistic(const summary_stats& stats, statistic which);

/// Human-readable name ("min", "mean", "max", "median").
std::string to_string(statistic which);

}  // namespace reduce
