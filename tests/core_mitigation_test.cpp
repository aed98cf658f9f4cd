// Tests for the mitigation-comparison harness (core/mitigation.h): the
// paper's FAT >= FAM >= FAP >> unmitigated hierarchy and the stuck-at
// weight corruption of unmitigated chips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/mitigation.h"
#include "core/workload.h"
#include "fault/mask_builder.h"

namespace reduce {
namespace {

class MitigationFixture : public ::testing::Test {
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

workload* MitigationFixture::shared_ = nullptr;

TEST_F(MitigationFixture, ComparisonOrdering) {
    mitigation_config cfg;
    cfg.fault_rates = {0.2};
    cfg.fat_epochs = 1.5;
    const std::vector<mitigation_outcome> outcomes =
        compare_mitigations(*w().model, w().pretrained, w().train_data, w().test_data,
                            w().array, w().trainer_cfg, cfg);
    ASSERT_EQ(outcomes.size(), 4u);
    double unmitigated = 0.0;
    double fap = 0.0;
    double fam = 0.0;
    double fat = 0.0;
    for (const mitigation_outcome& o : outcomes) {
        if (o.technique == "unmitigated") { unmitigated = o.accuracy; }
        if (o.technique == "fap") { fap = o.accuracy; }
        if (o.technique == "fam") { fam = o.accuracy; }
        if (o.technique == "fat") { fat = o.accuracy; }
    }
    // The paper's hierarchy: FAT >= FAM >= FAP >> unmitigated. At this tiny
    // test scale FAM can come within noise of a short FAT run, so the
    // adjacent comparisons carry a small tolerance.
    EXPECT_GT(fap, unmitigated);
    EXPECT_GE(fam, fap - 0.05);
    EXPECT_GE(fat, fam - 0.05);
    EXPECT_GT(fat, unmitigated + 0.1);
}

TEST_F(MitigationFixture, CorruptWeightsRespectsKinds) {
    restore_parameters(w().model->parameters(), w().pretrained);
    fault_grid faults(w().array.rows, w().array.cols);
    faults.set(0, 0, pe_fault::stuck_weight_max);
    faults.set(1, 1, pe_fault::stuck_weight_zero);
    corrupt_weights_for_faults(*w().model, w().array, faults);

    const auto layers = collect_mapped_layers(*w().model);
    const tensor& weights = layers[0].weight->value;
    float w_max = 0.0f;
    // w_max was computed from the corrupted tensor's source (pretrained),
    // so recompute from the restored snapshot for the assertion.
    for (const float v : w().pretrained.values[0].data()) {
        w_max = std::max(w_max, std::abs(v));
    }
    EXPECT_FLOAT_EQ(weights.at2(0, 0), w_max);   // (i=0, o=0) on PE (0,0)
    EXPECT_FLOAT_EQ(weights.at2(1, 1), 0.0f);    // (i=1, o=1) on PE (1,1)
    restore_parameters(w().model->parameters(), w().pretrained);
}

}  // namespace
}  // namespace reduce
