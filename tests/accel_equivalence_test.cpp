// The load-bearing equivalence proof: executing a GEMM on the faulty
// systolic array with FAP bypass is EXACTLY the same function as masking
// the corresponding weights and running a healthy GEMM. This is what lets
// the training stack emulate damaged hardware with weight masks (as the
// paper does in PyTorch) without ever being wrong about the semantics.
#include <gtest/gtest.h>

#include <cmath>

#include "accel/systolic_array.h"
#include "fault/mask_builder.h"
#include "fault/models.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace reduce {
namespace {

tensor random_tensor(shape_t shape, rng& gen) {
    tensor t(std::move(shape));
    uniform_init(t, -1.0f, 1.0f, gen);
    return t;
}

/// Masked fast-path execution: Y = X · (W ∘ M)ᵀ.
tensor masked_gemm(const tensor& x, const tensor& w, const tensor& mask) {
    return matmul_nt(x, mul(w, mask));
}

TEST(Equivalence, SingleTileBypass) {
    array_config cfg;
    cfg.rows = 8;
    cfg.cols = 8;
    fault_grid faults(8, 8);
    faults.set(1, 2, pe_fault::bypassed);
    faults.set(5, 5, pe_fault::bypassed);
    rng gen(1);
    const tensor x = random_tensor({4, 8}, gen);
    const tensor w = random_tensor({8, 8}, gen);

    const gemm_mapping mapping(cfg, 8, 8);
    const systolic_array array(cfg, faults);
    const tensor hw = array.run_gemm(x, w, mapping);
    const tensor sw = masked_gemm(x, w, build_weight_mask(mapping, faults));
    EXPECT_TRUE(hw.allclose(sw, 1e-5f));
}

TEST(Equivalence, TiledLayerBypass) {
    // fan_in and fan_out larger than the array: weights wrap around and a
    // single faulty PE masks several weights.
    array_config cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    fault_grid faults(4, 4);
    faults.set(0, 0, pe_fault::bypassed);
    faults.set(3, 2, pe_fault::bypassed);
    rng gen(2);
    const tensor x = random_tensor({5, 10}, gen);
    const tensor w = random_tensor({7, 10}, gen);

    const gemm_mapping mapping(cfg, 10, 7);
    const systolic_array array(cfg, faults);
    const tensor hw = array.run_gemm(x, w, mapping);
    const tensor sw = masked_gemm(x, w, build_weight_mask(mapping, faults));
    EXPECT_TRUE(hw.allclose(sw, 1e-5f));
}

TEST(Equivalence, RandomMapsAcrossRates) {
    array_config cfg;
    cfg.rows = 16;
    cfg.cols = 16;
    rng gen(3);
    for (const double rate : {0.05, 0.2, 0.5}) {
        random_fault_config fc;
        fc.fault_rate = rate;
        const fault_grid faults = generate_random_faults(cfg, fc, 100 + gen.next_u64() % 1000);
        const tensor x = random_tensor({6, 24}, gen);
        const tensor w = random_tensor({20, 24}, gen);
        const gemm_mapping mapping(cfg, 24, 20);
        const systolic_array array(cfg, faults);
        EXPECT_TRUE(array.run_gemm(x, w, mapping)
                        .allclose(masked_gemm(x, w, build_weight_mask(mapping, faults)), 1e-5f))
            << "rate " << rate;
    }
}

TEST(Equivalence, WithColumnPermutation) {
    // FAM's permuted mapping must stay equivalent to its permuted mask.
    array_config cfg;
    cfg.rows = 6;
    cfg.cols = 6;
    fault_grid faults(6, 6);
    faults.set(2, 4, pe_fault::bypassed);
    faults.set(0, 1, pe_fault::bypassed);
    rng gen(4);
    const tensor x = random_tensor({3, 6}, gen);
    const tensor w = random_tensor({6, 6}, gen);
    const std::vector<std::size_t> perm = {3, 1, 4, 0, 5, 2};
    const gemm_mapping mapping(cfg, 6, 6, perm);
    const systolic_array array(cfg, faults);
    EXPECT_TRUE(array.run_gemm(x, w, mapping)
                    .allclose(masked_gemm(x, w, build_weight_mask(mapping, faults)), 1e-5f));
}

TEST(Equivalence, HealthyArrayIsPlainGemm) {
    array_config cfg;
    cfg.rows = 8;
    cfg.cols = 8;
    rng gen(5);
    const tensor x = random_tensor({4, 12}, gen);
    const tensor w = random_tensor({9, 12}, gen);
    const gemm_mapping mapping(cfg, 12, 9);
    const systolic_array array(cfg, fault_grid(cfg.rows, cfg.cols));
    EXPECT_TRUE(array.run_gemm(x, w, mapping).allclose(matmul_nt(x, w), 1e-5f));
}

TEST(Equivalence, StuckZeroEqualsBypassNumerically) {
    array_config cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    fault_grid stuck(4, 4);
    stuck.set(1, 1, pe_fault::stuck_weight_zero);
    fault_grid bypassed(4, 4);
    bypassed.set(1, 1, pe_fault::bypassed);
    rng gen(6);
    const tensor x = random_tensor({3, 4}, gen);
    const tensor w = random_tensor({4, 4}, gen);
    const gemm_mapping mapping(cfg, 4, 4);
    EXPECT_TRUE(systolic_array(cfg, stuck)
                    .run_gemm(x, w, mapping)
                    .allclose(systolic_array(cfg, bypassed).run_gemm(x, w, mapping), 1e-6f));
}

TEST(Equivalence, StuckExtremeEqualsWeightSubstitution) {
    // A stuck-at-max PE behaves like replacing its weights with +w_max.
    array_config cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    fault_grid faults(4, 4);
    faults.set(2, 3, pe_fault::stuck_weight_max);
    rng gen(7);
    const tensor x = random_tensor({3, 4}, gen);
    const tensor w = random_tensor({4, 4}, gen);
    float w_max = 0.0f;
    for (const float v : w.data()) { w_max = std::max(w_max, std::abs(v)); }

    tensor w_sub = w;
    w_sub.at2(3, 2) = w_max;  // weight (i=2, o=3) lives on PE (2, 3)
    const gemm_mapping mapping(cfg, 4, 4);
    const systolic_array array(cfg, faults);
    EXPECT_TRUE(array.run_gemm(x, w, mapping).allclose(matmul_nt(x, w_sub), 1e-5f));
}

TEST(Equivalence, FapRepairMatchesMaskRebuild) {
    // apply_fap() then execute == rebuild the mask for the repaired grid.
    array_config cfg;
    cfg.rows = 8;
    cfg.cols = 8;
    random_fault_config fc;
    fc.fault_rate = 0.2;
    fc.kind_mix = fault_kind_mix::random_stuck;
    const fault_grid stuck = generate_random_faults(cfg, fc, 42);
    systolic_array array(cfg, stuck);
    array.apply_fap();

    rng gen(8);
    const tensor x = random_tensor({4, 8}, gen);
    const tensor w = random_tensor({8, 8}, gen);
    const gemm_mapping mapping(cfg, 8, 8);
    EXPECT_TRUE(array.run_gemm(x, w, mapping)
                    .allclose(masked_gemm(x, w, build_weight_mask(mapping, array.faults())),
                              1e-5f));
}

// Parameterized sweep over GEMM shapes (tiling edge cases included).
struct shape_case {
    std::size_t fan_in, fan_out, batch;
};

class EquivalenceShapes : public ::testing::TestWithParam<shape_case> {};

TEST_P(EquivalenceShapes, BypassEqualsMask) {
    const auto [fan_in, fan_out, batch] = GetParam();
    array_config cfg;
    cfg.rows = 8;
    cfg.cols = 8;
    random_fault_config fc;
    fc.fault_rate = 0.15;
    const fault_grid faults = generate_random_faults(cfg, fc, fan_in * 100 + fan_out);
    rng gen(fan_in + fan_out + batch);
    const tensor x = random_tensor({batch, fan_in}, gen);
    const tensor w = random_tensor({fan_out, fan_in}, gen);
    const gemm_mapping mapping(cfg, fan_in, fan_out);
    const systolic_array array(cfg, faults);
    EXPECT_TRUE(array.run_gemm(x, w, mapping)
                    .allclose(masked_gemm(x, w, build_weight_mask(mapping, faults)), 1e-5f));
}

INSTANTIATE_TEST_SUITE_P(Shapes, EquivalenceShapes,
                         ::testing::Values(shape_case{1, 1, 1}, shape_case{8, 8, 4},
                                           shape_case{7, 9, 3}, shape_case{16, 16, 2},
                                           shape_case{17, 5, 5}, shape_case{3, 24, 2}));

}  // namespace
}  // namespace reduce
