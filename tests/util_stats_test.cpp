// Tests for summary statistics — the min/mean/max machinery behind the
// paper's epoch-count error bars and the statistic-selection policy.
#include <gtest/gtest.h>

#include <vector>

#include "util/error.h"
#include "util/stats.h"

namespace reduce {
namespace {

TEST(Summarize, BasicSample) {
    const std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    const summary_stats s = summarize(v);
    EXPECT_EQ(s.count, 8u);
    EXPECT_DOUBLE_EQ(s.min, 2.0);
    EXPECT_DOUBLE_EQ(s.max, 9.0);
    EXPECT_DOUBLE_EQ(s.mean, 5.0);
    EXPECT_NEAR(s.stddev, 2.13809, 1e-4);  // sample stddev (n-1)
    EXPECT_NEAR(s.median, 4.5, 1e-12);
}

TEST(Summarize, SingleElement) {
    const std::vector<double> v = {3.5};
    const summary_stats s = summarize(v);
    EXPECT_DOUBLE_EQ(s.min, 3.5);
    EXPECT_DOUBLE_EQ(s.max, 3.5);
    EXPECT_DOUBLE_EQ(s.mean, 3.5);
    EXPECT_DOUBLE_EQ(s.stddev, 0.0);
    EXPECT_DOUBLE_EQ(s.median, 3.5);
}

TEST(Summarize, RejectsEmpty) {
    const std::vector<double> v;
    EXPECT_THROW(summarize(v), error);
}

TEST(MeanOf, NegativeValues) {
    const std::vector<double> v = {-1.0, 1.0, -3.0, 3.0};
    EXPECT_DOUBLE_EQ(mean_of(v), 0.0);
}

TEST(StddevOf, ConstantSampleIsZero) {
    const std::vector<double> v = {2.0, 2.0, 2.0};
    EXPECT_DOUBLE_EQ(stddev_of(v), 0.0);
}

TEST(StddevOf, SizeOneIsZero) {
    const std::vector<double> v = {42.0};
    EXPECT_DOUBLE_EQ(stddev_of(v), 0.0);
}

TEST(Percentile, InterpolatesLinearly) {
    const std::vector<double> v = {10.0, 20.0, 30.0, 40.0};
    EXPECT_DOUBLE_EQ(percentile_of(v, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(percentile_of(v, 100.0), 40.0);
    EXPECT_DOUBLE_EQ(percentile_of(v, 50.0), 25.0);
    EXPECT_NEAR(percentile_of(v, 25.0), 17.5, 1e-12);
}

TEST(Percentile, UnsortedInputHandled) {
    const std::vector<double> v = {40.0, 10.0, 30.0, 20.0};
    EXPECT_DOUBLE_EQ(percentile_of(v, 50.0), 25.0);
}

TEST(Percentile, RejectsOutOfRange) {
    const std::vector<double> v = {1.0};
    EXPECT_THROW(percentile_of(v, -1.0), error);
    EXPECT_THROW(percentile_of(v, 101.0), error);
}

TEST(SelectStatistic, PicksEachField) {
    const std::vector<double> v = {1.0, 2.0, 3.0, 10.0};
    const summary_stats s = summarize(v);
    EXPECT_DOUBLE_EQ(select_statistic(s, statistic::min), 1.0);
    EXPECT_DOUBLE_EQ(select_statistic(s, statistic::max), 10.0);
    EXPECT_DOUBLE_EQ(select_statistic(s, statistic::mean), 4.0);
    EXPECT_DOUBLE_EQ(select_statistic(s, statistic::median), 2.5);
}

TEST(StatisticNames, MatchTheSelectors) {
    EXPECT_EQ(to_string(statistic::min), "min");
    EXPECT_EQ(to_string(statistic::mean), "mean");
    EXPECT_EQ(to_string(statistic::max), "max");
    EXPECT_EQ(to_string(statistic::median), "median");
}

// Property: for any sample, min <= median <= max and min <= mean <= max —
// the ordering the selector's conservativeness argument relies on.
class StatsOrdering : public ::testing::TestWithParam<int> {};

TEST_P(StatsOrdering, OrderInvariants) {
    std::vector<double> v;
    // Deterministic pseudo-sample from the parameter.
    double x = 0.5 + GetParam();
    for (int i = 0; i < 20 + GetParam(); ++i) {
        x = 4.0 * x * (1.0 - x / 50.0);  // chaotic but bounded
        v.push_back(x);
    }
    const summary_stats s = summarize(v);
    EXPECT_LE(s.min, s.median);
    EXPECT_LE(s.median, s.max);
    EXPECT_LE(s.min, s.mean);
    EXPECT_LE(s.mean, s.max);
    EXPECT_GE(s.stddev, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Samples, StatsOrdering, ::testing::Range(0, 10));

}  // namespace
}  // namespace reduce
