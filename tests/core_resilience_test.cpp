// Tests for Step 1: the resilience analyzer and the table queries that
// drive retraining-amount selection (Fig. 2a / 2b machinery).
#include <gtest/gtest.h>

#include "core/resilience.h"
#include "core/workload.h"
#include "util/error.h"
#include "util/log.h"

namespace reduce {
namespace {

/// Hand-built table: accuracy climbs linearly with epochs, slower at higher
/// fault rates — lets us assert exact query semantics without training.
resilience_table synthetic_table() {
    std::vector<resilience_run> runs;
    const std::vector<double> rates = {0.0, 0.2, 0.4};
    for (std::size_t ri = 0; ri < rates.size(); ++ri) {
        for (std::size_t rep = 0; rep < 3; ++rep) {
            resilience_run run;
            run.fault_rate = rates[ri];
            run.repeat = rep;
            run.map_seed = ri * 10 + rep;
            // Start low, gain (0.20 - 0.04*ri - 0.02*rep) accuracy per epoch.
            const double gain = 0.20 - 0.04 * static_cast<double>(ri) -
                                0.02 * static_cast<double>(rep);
            for (double e = 0.0; e <= 4.0 + 1e-9; e += 0.5) {
                run.trajectory.push_back({e, std::min(0.6 + gain * e, 0.99)});
            }
            runs.push_back(std::move(run));
        }
    }
    return resilience_table(std::move(runs), 4.0);
}

TEST(ResilienceTable, RatesSortedUnique) {
    const resilience_table table = synthetic_table();
    ASSERT_EQ(table.fault_rates().size(), 3u);
    EXPECT_DOUBLE_EQ(table.fault_rates()[0], 0.0);
    EXPECT_DOUBLE_EQ(table.fault_rates()[2], 0.4);
}

TEST(ResilienceTable, AccuracyAtReadsTrajectory) {
    const resilience_table table = synthetic_table();
    // rate 0, gains {0.20, 0.18, 0.16} per repeat at 1 epoch.
    EXPECT_NEAR(table.accuracy_at(0.0, 1.0, statistic::mean), 0.6 + 0.18, 1e-9);
    EXPECT_NEAR(table.accuracy_at(0.0, 1.0, statistic::max), 0.6 + 0.20, 1e-9);
    EXPECT_NEAR(table.accuracy_at(0.0, 0.0, statistic::mean), 0.6, 1e-9);
    EXPECT_THROW(table.accuracy_at(0.3, 1.0), error);  // not a grid point
}

TEST(ResilienceTable, EpochsToTargetPerRepeat) {
    const resilience_table table = synthetic_table();
    // Target 0.9 at rate 0: gains {0.20, 0.18, 0.16} → first checkpoint
    // (0.5 spacing) with acc >= 0.9.
    const auto sample = table.epochs_to_target_at(0.0, 0.9);
    ASSERT_EQ(sample.epochs.size(), 3u);
    EXPECT_EQ(sample.censored, 0u);
    EXPECT_DOUBLE_EQ(sample.epochs[0], 1.5);   // 0.6+0.20*1.5 = 0.90
    EXPECT_DOUBLE_EQ(sample.epochs[1], 2.0);   // 0.6+0.18*2.0 = 0.96
    EXPECT_DOUBLE_EQ(sample.epochs[2], 2.0);   // 0.6+0.16*2.0 = 0.92
}

TEST(ResilienceTable, CensoredRunsCountBudget) {
    const resilience_table table = synthetic_table();
    // Target 0.999 exceeds the 0.99 curve cap → censored everywhere.
    const auto sample = table.epochs_to_target_at(0.4, 0.999);
    EXPECT_EQ(sample.censored, 3u);
    for (const double e : sample.epochs) { EXPECT_DOUBLE_EQ(e, 4.0); }
}

TEST(ResilienceTable, EpochsForInterpolatesBetweenRates) {
    const resilience_table table = synthetic_table();
    const double at_00 = table.epochs_for(0.0, 0.9, statistic::max).value();
    const double at_02 = table.epochs_for(0.2, 0.9, statistic::max).value();
    const double at_01 = table.epochs_for(0.1, 0.9, statistic::max).value();
    EXPECT_NEAR(at_01, 0.5 * (at_00 + at_02), 1e-9);
    EXPECT_GT(at_02, at_00);  // more faults → more retraining
}

TEST(ResilienceTable, EpochsForClampsOutsideGrid) {
    const resilience_table table = synthetic_table();
    EXPECT_DOUBLE_EQ(table.epochs_for(0.9, 0.9, statistic::max).value(),
                     table.epochs_for(0.4, 0.9, statistic::max).value());
    EXPECT_DOUBLE_EQ(table.epochs_for(0.0, 0.9, statistic::max).value(),
                     table.epochs_for(-0.0, 0.9, statistic::max).value());
}

/// Installs a capturing sink for the test's scope; removed on any exit path
/// so a failing assertion cannot leave a dangling sink installed globally.
class scoped_log_sink {
public:
    explicit scoped_log_sink(log_sink sink) { set_log_sink(std::move(sink)); }
    ~scoped_log_sink() { set_log_sink(nullptr); }
    scoped_log_sink(const scoped_log_sink&) = delete;
    scoped_log_sink& operator=(const scoped_log_sink&) = delete;
};

TEST(ResilienceTable, EpochsForWarnsWhenClampExtrapolates) {
    const resilience_table table = synthetic_table();  // grid [0.0, 0.4]
    std::vector<std::string> warnings;
    const scoped_log_sink capture([&](log_level level, const std::string& message) {
        if (level == log_level::warn) { warnings.push_back(message); }
    });

    // Queries on and between grid points are interpolation — no warning.
    (void)table.epochs_for(0.0, 0.9, statistic::max);
    (void)table.epochs_for(0.4, 0.9, statistic::max);
    (void)table.epochs_for(0.13, 0.9, statistic::max);
    EXPECT_TRUE(warnings.empty());

    // Beyond the upper grid end: clamped, and the extrapolation is flagged.
    (void)table.epochs_for(0.9, 0.9, statistic::max);
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_NE(warnings[0].find("0.9"), std::string::npos);
    EXPECT_NE(warnings[0].find("clamping"), std::string::npos);

    // Throttled to once per table: per-chip planning over a large fleet
    // must not flood stderr with identical warnings.
    (void)table.epochs_for(0.95, 0.9, statistic::max);
    EXPECT_EQ(warnings.size(), 1u);

    // A fresh copy warns afresh.
    const resilience_table copy = table;
    (void)copy.epochs_for(0.95, 0.9, statistic::max);
    EXPECT_EQ(warnings.size(), 2u);
}

TEST(ResilienceTable, UpperInterpolationIsConservative) {
    const resilience_table table = synthetic_table();
    const double linear = table
                              .epochs_for(0.1, 0.9, statistic::max,
                                          resilience_table::interpolation::linear)
                              .value();
    const double upper = table
                             .epochs_for(0.1, 0.9, statistic::max,
                                         resilience_table::interpolation::upper)
                             .value();
    EXPECT_GE(upper, linear);
    // Upper mode returns exactly the next grid point's value.
    EXPECT_DOUBLE_EQ(upper, table.epochs_for(0.2, 0.9, statistic::max).value());
    // On grid points the two modes agree.
    EXPECT_DOUBLE_EQ(table
                         .epochs_for(0.2, 0.9, statistic::max,
                                     resilience_table::interpolation::upper)
                         .value(),
                     table.epochs_for(0.2, 0.9, statistic::max).value());
}

TEST(ResilienceTable, EpochsForUnreachableIsNullopt) {
    const resilience_table table = synthetic_table();
    EXPECT_FALSE(table.epochs_for(0.4, 0.999, statistic::max).has_value());
}

TEST(ResilienceTable, MaxGeqMeanGeqMin) {
    const resilience_table table = synthetic_table();
    for (const double rate : table.fault_rates()) {
        const double mn = table.epochs_for(rate, 0.9, statistic::min).value();
        const double mean = table.epochs_for(rate, 0.9, statistic::mean).value();
        const double mx = table.epochs_for(rate, 0.9, statistic::max).value();
        EXPECT_LE(mn, mean);
        EXPECT_LE(mean, mx);
    }
}

TEST(ResilienceTable, JsonRoundTrip) {
    const resilience_table table = synthetic_table();
    const resilience_table back = resilience_table::from_json(table.to_json());
    EXPECT_EQ(back.fault_rates(), table.fault_rates());
    EXPECT_DOUBLE_EQ(back.max_epochs(), table.max_epochs());
    EXPECT_EQ(back.runs().size(), table.runs().size());
    EXPECT_DOUBLE_EQ(back.epochs_for(0.13, 0.9, statistic::max).value(),
                     table.epochs_for(0.13, 0.9, statistic::max).value());
}

TEST(ResilienceTable, JsonRoundTripPreservesFingerprintAnd64BitSeeds) {
    std::vector<resilience_run> runs(1);
    runs[0].fault_rate = 0.1;
    runs[0].repeat = 0;
    // Not exactly representable as a double — would corrupt if serialized
    // as a JSON number.
    runs[0].map_seed = 0xfedcba9876543211ULL;
    runs[0].trajectory = {{0.0, 0.5}, {1.0, 0.8}};
    const resilience_table table(std::move(runs), 1.0, "cafe0123");
    const resilience_table back = resilience_table::from_json(table.to_json());
    EXPECT_EQ(back.fingerprint(), "cafe0123");
    EXPECT_EQ(back.runs()[0].map_seed, 0xfedcba9876543211ULL);
    EXPECT_EQ(back.to_json().dump(), table.to_json().dump());

    // Malformed seeds must fail loudly, not wrap (strtoull accepts "-1").
    std::string doc = table.to_json().dump();
    const auto at = doc.find("18364758544493064721");  // 0xfedcba9876543211
    ASSERT_NE(at, std::string::npos);
    doc.replace(at, 20, "-1");
    EXPECT_THROW(resilience_table::from_json(json_parse(doc)), error);
}

TEST(ResilienceTable, RunsStoredInCanonicalOrder) {
    // Feed runs in scrambled order; the table must canonicalize so that any
    // cell partition / merge order serializes byte-identically.
    std::vector<resilience_run> runs(3);
    runs[0].fault_rate = 0.2;
    runs[0].repeat = 1;
    runs[1].fault_rate = 0.2;
    runs[1].repeat = 0;
    runs[2].fault_rate = 0.0;
    runs[2].repeat = 0;
    for (resilience_run& run : runs) { run.trajectory = {{0.0, 0.5}}; }
    const resilience_table table(std::move(runs), 1.0);
    EXPECT_DOUBLE_EQ(table.runs()[0].fault_rate, 0.0);
    EXPECT_DOUBLE_EQ(table.runs()[1].fault_rate, 0.2);
    EXPECT_EQ(table.runs()[1].repeat, 0u);
    EXPECT_EQ(table.runs()[2].repeat, 1u);
}

TEST(ResilienceTable, RejectsEmptyAndMalformed) {
    EXPECT_THROW(resilience_table({}, 4.0), error);
    std::vector<resilience_run> runs(1);
    runs[0].fault_rate = 0.1;
    runs[0].trajectory = {{1.0, 0.5}};  // missing epoch-0 point
    EXPECT_THROW(resilience_table(std::move(runs), 4.0), error);
}

class AnalyzerFixture : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        shared_ = new workload(make_standard_workload(make_test_workload_config()));
    }
    static void TearDownTestSuite() {
        delete shared_;
        shared_ = nullptr;
    }
    workload& w() { return *shared_; }
    static workload* shared_;
};

workload* AnalyzerFixture::shared_ = nullptr;

TEST_F(AnalyzerFixture, ProducesExpectedRunCount) {
    resilience_analyzer analyzer(*w().model, w().pretrained, w().train_data, w().test_data,
                                 w().array, w().trainer_cfg);
    resilience_config cfg;
    cfg.fault_rates = {0.0, 0.2};
    cfg.repeats = 2;
    cfg.max_epochs = 1.0;
    const resilience_table table = analyzer.analyze(cfg);
    EXPECT_EQ(table.runs().size(), 4u);
}

TEST_F(AnalyzerFixture, ZeroRateRunsStartAtCleanAccuracy) {
    resilience_analyzer analyzer(*w().model, w().pretrained, w().train_data, w().test_data,
                                 w().array, w().trainer_cfg);
    resilience_config cfg;
    cfg.fault_rates = {0.0};
    cfg.repeats = 1;
    cfg.max_epochs = 0.5;
    const resilience_table table = analyzer.analyze(cfg);
    EXPECT_NEAR(table.accuracy_at(0.0, 0.0), w().clean_accuracy, 1e-9);
    EXPECT_DOUBLE_EQ(table.runs()[0].masked_weight_fraction, 0.0);
}

TEST_F(AnalyzerFixture, HigherRateStartsLower) {
    resilience_analyzer analyzer(*w().model, w().pretrained, w().train_data, w().test_data,
                                 w().array, w().trainer_cfg);
    resilience_config cfg;
    cfg.fault_rates = {0.0, 0.4};
    cfg.repeats = 2;
    cfg.max_epochs = 0.5;
    const resilience_table table = analyzer.analyze(cfg);
    EXPECT_LT(table.accuracy_at(0.4, 0.0, statistic::mean),
              table.accuracy_at(0.0, 0.0, statistic::mean));
}

TEST_F(AnalyzerFixture, DeterministicGivenSeed) {
    resilience_analyzer analyzer(*w().model, w().pretrained, w().train_data, w().test_data,
                                 w().array, w().trainer_cfg);
    resilience_config cfg;
    cfg.fault_rates = {0.2};
    cfg.repeats = 1;
    cfg.max_epochs = 0.5;
    const resilience_table a = analyzer.analyze(cfg);
    const resilience_table b = analyzer.analyze(cfg);
    ASSERT_EQ(a.runs().size(), b.runs().size());
    for (std::size_t i = 0; i < a.runs().size(); ++i) {
        ASSERT_EQ(a.runs()[i].trajectory.size(), b.runs()[i].trajectory.size());
        for (std::size_t k = 0; k < a.runs()[i].trajectory.size(); ++k) {
            EXPECT_DOUBLE_EQ(a.runs()[i].trajectory[k].test_accuracy,
                             b.runs()[i].trajectory[k].test_accuracy);
        }
    }
}

TEST_F(AnalyzerFixture, PrototypeModelIsNeverMutated) {
    const model_snapshot before = snapshot_parameters(w().model->parameters());
    resilience_analyzer analyzer(*w().model, w().pretrained, w().train_data, w().test_data,
                                 w().array, w().trainer_cfg);
    resilience_config cfg;
    cfg.fault_rates = {0.3};
    cfg.repeats = 1;
    cfg.max_epochs = 0.5;
    (void)analyzer.analyze(cfg);
    // The sweep trains per-worker clones; the prototype keeps its weights
    // and never grows masks.
    for (std::size_t i = 0; i < before.size(); ++i) {
        EXPECT_TRUE(w().model->parameters()[i]->value == before.values[i]);
        EXPECT_FALSE(w().model->parameters()[i]->has_mask());
    }
}

TEST_F(AnalyzerFixture, RejectsBadConfigs) {
    resilience_analyzer analyzer(*w().model, w().pretrained, w().train_data, w().test_data,
                                 w().array, w().trainer_cfg);
    resilience_config cfg;
    cfg.fault_rates = {};
    EXPECT_THROW(analyzer.analyze(cfg), error);
    cfg.fault_rates = {0.1};
    cfg.repeats = 0;
    EXPECT_THROW(analyzer.analyze(cfg), error);
    cfg.repeats = 1;
    cfg.max_epochs = 0.0;
    EXPECT_THROW(analyzer.analyze(cfg), error);
    cfg.max_epochs = 1.0;
    cfg.fault_rates = {1.5};
    EXPECT_THROW(analyzer.analyze(cfg), error);
    // Duplicate rates would make sweep cells collide.
    cfg.fault_rates = {0.1, 0.1};
    EXPECT_THROW(analyzer.analyze(cfg), error);
}

}  // namespace
}  // namespace reduce
