// Tests for the accelerator substrate: PE fault semantics, fault grid,
// weight mapping, and the performance model.
#include <gtest/gtest.h>

#include "accel/systolic_array.h"
#include "util/error.h"

namespace reduce {
namespace {

TEST(PeFault, MacSemantics) {
    EXPECT_FLOAT_EQ(pe_mac(pe_fault::healthy, 1.0f, 2.0f, 3.0f, 9.0f), 7.0f);
    EXPECT_FLOAT_EQ(pe_mac(pe_fault::bypassed, 1.0f, 2.0f, 3.0f, 9.0f), 1.0f);
    EXPECT_FLOAT_EQ(pe_mac(pe_fault::stuck_weight_zero, 1.0f, 2.0f, 3.0f, 9.0f), 1.0f);
    EXPECT_FLOAT_EQ(pe_mac(pe_fault::stuck_weight_max, 1.0f, 2.0f, 3.0f, 9.0f), 28.0f);
    EXPECT_FLOAT_EQ(pe_mac(pe_fault::stuck_weight_min, 1.0f, 2.0f, 3.0f, 9.0f), -26.0f);
}

TEST(PeFault, IsFaultyOnlyForNonHealthy) {
    EXPECT_FALSE(is_faulty(pe_fault::healthy));
    EXPECT_TRUE(is_faulty(pe_fault::bypassed));
    EXPECT_TRUE(is_faulty(pe_fault::stuck_weight_max));
}

TEST(FaultGrid, StartsHealthy) {
    const fault_grid grid(4, 6);
    EXPECT_EQ(grid.rows(), 4u);
    EXPECT_EQ(grid.cols(), 6u);
    EXPECT_EQ(grid.pe_count(), 24u);
    EXPECT_EQ(grid.faulty_count(), 0u);
    EXPECT_DOUBLE_EQ(grid.fault_rate(), 0.0);
}

TEST(FaultGrid, SetAndQuery) {
    fault_grid grid(3, 3);
    grid.set(1, 2, pe_fault::bypassed);
    EXPECT_EQ(grid.at(1, 2), pe_fault::bypassed);
    EXPECT_EQ(grid.faulty_count(), 1u);
    EXPECT_NEAR(grid.fault_rate(), 1.0 / 9.0, 1e-12);
    EXPECT_THROW(grid.at(3, 0), error);
    EXPECT_THROW(grid.set(0, 3, pe_fault::bypassed), error);
}

TEST(FaultGrid, SubRectangleCounts) {
    fault_grid grid(4, 4);
    grid.set(0, 0, pe_fault::bypassed);
    grid.set(3, 3, pe_fault::bypassed);
    EXPECT_EQ(grid.faulty_count_in(2, 2), 1u);
    EXPECT_EQ(grid.faulty_count_in(4, 4), 2u);
    EXPECT_DOUBLE_EQ(grid.fault_rate_in(2, 2), 0.25);
    EXPECT_THROW(grid.faulty_count_in(5, 1), error);
    EXPECT_THROW(grid.fault_rate_in(0, 1), error);
}

TEST(FaultGrid, RepairAllConvertsKinds) {
    fault_grid grid(2, 2);
    grid.set(0, 0, pe_fault::stuck_weight_max);
    grid.set(1, 1, pe_fault::stuck_weight_zero);
    EXPECT_EQ(grid.repair_all(pe_fault::bypassed), 2u);
    EXPECT_EQ(grid.at(0, 0), pe_fault::bypassed);
    EXPECT_EQ(grid.at(1, 1), pe_fault::bypassed);
    EXPECT_EQ(grid.repair_all(pe_fault::bypassed), 0u);  // idempotent
}

TEST(Mapping, IdentityModuloPlacement) {
    array_config array;
    array.rows = 4;
    array.cols = 3;
    const gemm_mapping mapping(array, 10, 7);
    EXPECT_EQ(mapping.row_tiles(), 3u);  // ceil(10/4)
    EXPECT_EQ(mapping.col_tiles(), 3u);  // ceil(7/3)
    const pe_coordinate pe = mapping.pe_for_weight(5, 4);
    EXPECT_EQ(pe.row, 1u);  // 5 mod 4
    EXPECT_EQ(pe.col, 1u);  // 4 mod 3
}

TEST(Mapping, SmallLayerUsesSubArray) {
    array_config array;
    array.rows = 8;
    array.cols = 8;
    const gemm_mapping mapping(array, 3, 5);
    EXPECT_EQ(mapping.row_tiles(), 1u);
    EXPECT_EQ(mapping.col_tiles(), 1u);
}

TEST(Mapping, BoundsChecked) {
    array_config array;
    array.rows = 4;
    array.cols = 4;
    const gemm_mapping mapping(array, 4, 4);
    EXPECT_THROW(mapping.pe_for_weight(4, 0), error);
    EXPECT_THROW(mapping.pe_for_weight(0, 4), error);
}

TEST(Mapping, PermutationValidated) {
    array_config array;
    array.rows = 2;
    array.cols = 3;
    EXPECT_THROW(gemm_mapping(array, 2, 2, {0, 1}), error);        // wrong size
    EXPECT_THROW(gemm_mapping(array, 2, 2, {0, 1, 1}), error);     // repeat
    EXPECT_THROW(gemm_mapping(array, 2, 2, {0, 1, 5}), error);     // out of range
    EXPECT_NO_THROW(gemm_mapping(array, 2, 2, {2, 0, 1}));
}

TEST(Mapping, PermutationRedirectsColumns) {
    array_config array;
    array.rows = 2;
    array.cols = 3;
    const gemm_mapping mapping(array, 2, 3, {2, 0, 1});
    EXPECT_EQ(mapping.pe_for_weight(0, 0).col, 2u);
    EXPECT_EQ(mapping.pe_for_weight(0, 1).col, 0u);
    EXPECT_EQ(mapping.pe_for_weight(0, 2).col, 1u);
}

TEST(Mapping, MaskedWeightFraction) {
    array_config array;
    array.rows = 2;
    array.cols = 2;
    fault_grid faults(2, 2);
    faults.set(0, 0, pe_fault::bypassed);
    // 4x4 GEMM on a 2x2 array: each PE hosts 4 weights → 4/16 masked.
    const gemm_mapping mapping(array, 4, 4);
    EXPECT_DOUBLE_EQ(mapping.masked_weight_fraction(faults), 0.25);
}

TEST(Mapping, FractionMatchesFaultRateForTiledLayers) {
    // Once a layer tiles the full array, the masked-weight fraction equals
    // the array fault rate exactly (every PE hosts the same weight count
    // when dims are multiples of the array dims).
    array_config array;
    array.rows = 4;
    array.cols = 4;
    fault_grid faults(4, 4);
    faults.set(0, 1, pe_fault::bypassed);
    faults.set(2, 3, pe_fault::bypassed);
    faults.set(3, 0, pe_fault::bypassed);
    const gemm_mapping mapping(array, 8, 12);  // exact multiples
    EXPECT_DOUBLE_EQ(mapping.masked_weight_fraction(faults), faults.fault_rate());
}

TEST(SystolicArray, RejectsMismatchedFaultGrid) {
    array_config cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    EXPECT_THROW(systolic_array(cfg, fault_grid(2, 2)), error);
}

TEST(SystolicArray, ApplyFapRepairsStuckPes) {
    array_config cfg;
    cfg.rows = 2;
    cfg.cols = 2;
    fault_grid faults(2, 2);
    faults.set(0, 0, pe_fault::stuck_weight_max);
    systolic_array array(cfg, faults);
    EXPECT_EQ(array.apply_fap(), 1u);
    EXPECT_EQ(array.faults().at(0, 0), pe_fault::bypassed);
}

TEST(PerfModel, HealthyUtilizationAndCycles) {
    array_config cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    const gemm_mapping mapping(cfg, 4, 4);
    const gemm_perf perf = estimate_gemm_perf(cfg, mapping, 16);
    // One tile: load 4 + stream (16 + 4 + 4 - 2) = 26 cycles.
    EXPECT_EQ(perf.cycles, 26u);
    EXPECT_EQ(perf.weight_loads, 16u);
    EXPECT_EQ(perf.useful_macs, 16u * 16u);
    EXPECT_EQ(perf.lost_macs, 0u);
    EXPECT_GT(perf.utilization, 0.0);
    EXPECT_LE(perf.utilization, 1.0);
}

TEST(PerfModel, FaultsLoseWorkButNotTime) {
    array_config cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    fault_grid faults(4, 4);
    faults.set(1, 1, pe_fault::bypassed);
    const gemm_mapping mapping(cfg, 4, 4);
    const gemm_perf healthy = estimate_gemm_perf(cfg, mapping, 8);
    const gemm_perf damaged = estimate_gemm_perf(cfg, mapping, 8, &faults);
    EXPECT_EQ(healthy.cycles, damaged.cycles);  // FAP: no latency penalty
    EXPECT_EQ(damaged.lost_macs, 8u);           // one PE x batch
    EXPECT_EQ(damaged.useful_macs + damaged.lost_macs, healthy.useful_macs);
}

TEST(PerfModel, TilingAddsCycles) {
    array_config cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    const gemm_mapping small(cfg, 4, 4);
    const gemm_mapping big(cfg, 8, 8);  // 4 tiles
    const gemm_perf p_small = estimate_gemm_perf(cfg, small, 8);
    const gemm_perf p_big = estimate_gemm_perf(cfg, big, 8);
    EXPECT_GT(p_big.cycles, p_small.cycles);
    EXPECT_EQ(p_big.useful_macs, 8u * 8 * 8);
}

TEST(PerfModel, EdgeTilesCountPartialPes) {
    array_config cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    const gemm_mapping mapping(cfg, 5, 3);  // 2 row tiles, 1 col tile
    const gemm_perf perf = estimate_gemm_perf(cfg, mapping, 2);
    EXPECT_EQ(perf.weight_loads, 5u * 3u);
    EXPECT_EQ(perf.useful_macs, 2u * 5 * 3);
}

}  // namespace
}  // namespace reduce
