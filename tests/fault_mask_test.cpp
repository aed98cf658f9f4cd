// Tests for the mask builder — the FAP bridge between fault maps and
// trainable models — and the effective-fault-rate estimators of Step 2.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "fault/mask_builder.h"
#include "fault/models.h"
#include "nn/conv_layers.h"
#include "nn/layers.h"
#include "util/error.h"
#include "util/rng.h"

namespace reduce {
namespace {

array_config tiny_array(std::size_t rows, std::size_t cols) {
    array_config cfg;
    cfg.rows = rows;
    cfg.cols = cols;
    return cfg;
}

TEST(BuildMask, MarksExactlyFaultyPositions) {
    const array_config cfg = tiny_array(4, 4);
    fault_grid faults(4, 4);
    faults.set(1, 2, pe_fault::bypassed);
    const gemm_mapping mapping(cfg, 4, 4);
    const tensor mask = build_weight_mask(mapping, faults);
    EXPECT_EQ(mask.shape(), shape_t({4, 4}));
    for (std::size_t o = 0; o < 4; ++o) {
        for (std::size_t i = 0; i < 4; ++i) {
            const float expected = (i == 1 && o == 2) ? 0.0f : 1.0f;
            EXPECT_EQ(mask.at2(o, i), expected) << "(o=" << o << ", i=" << i << ")";
        }
    }
}

TEST(BuildMask, TilingWrapsModulo) {
    const array_config cfg = tiny_array(2, 2);
    fault_grid faults(2, 2);
    faults.set(0, 1, pe_fault::bypassed);
    const gemm_mapping mapping(cfg, 4, 4);
    const tensor mask = build_weight_mask(mapping, faults);
    // Weight (i, o) masked iff i%2==0 && o%2==1.
    for (std::size_t o = 0; o < 4; ++o) {
        for (std::size_t i = 0; i < 4; ++i) {
            const float expected = (i % 2 == 0 && o % 2 == 1) ? 0.0f : 1.0f;
            EXPECT_EQ(mask.at2(o, i), expected);
        }
    }
}

TEST(BuildMask, HealthyGridGivesAllOnes) {
    const array_config cfg = tiny_array(8, 8);
    const fault_grid faults(8, 8);
    const tensor mask = build_weight_mask(gemm_mapping(cfg, 5, 7), faults);
    EXPECT_DOUBLE_EQ(mask.sum(), 35.0);
}

TEST(AttachMasks, CoversLinearAndConvLayers) {
    rng gen(1);
    sequential model;
    model.emplace<conv2d_layer>(conv2d_spec{2, 4, 3, 3, 1, 1}, gen);
    model.emplace<relu_layer>();
    model.emplace<flatten>();
    model.emplace<linear>(4 * 16, 5, gen);

    const array_config cfg = tiny_array(8, 8);
    random_fault_config fc;
    fc.fault_rate = 0.25;
    const fault_grid faults = generate_random_faults(cfg, fc, 3);
    const mask_stats stats = attach_fault_masks(model, cfg, faults);
    EXPECT_EQ(stats.layers, 2u);
    EXPECT_EQ(stats.total_weights, 4u * 2 * 9 + 64u * 5);
    EXPECT_GT(stats.masked_weights, 0u);
    EXPECT_NEAR(stats.masked_fraction(), 0.25, 0.1);

    // Masks attached and weights already zeroed at masked positions.
    for (const mapped_layer& layer : collect_mapped_layers(model)) {
        ASSERT_TRUE(layer.weight->has_mask());
        for (std::size_t i = 0; i < layer.weight->value.numel(); ++i) {
            if (layer.weight->mask[i] == 0.0f) {
                EXPECT_EQ(layer.weight->value[i], 0.0f);
            }
        }
    }
}

/// The per-weight loop build_weight_mask replaced: one grid lookup per
/// weight, at PE (i % rows, perm[o % cols]).
tensor per_weight_mask(const gemm_mapping& mapping, const fault_grid& faults) {
    tensor mask({mapping.fan_out(), mapping.fan_in()}, 1.0f);
    for (std::size_t o = 0; o < mapping.fan_out(); ++o) {
        const std::size_t col = mapping.column_permutation()[o % mapping.array_cols()];
        for (std::size_t i = 0; i < mapping.fan_in(); ++i) {
            if (is_faulty(faults.at(i % mapping.array_rows(), col))) {
                mask[o * mapping.fan_in() + i] = 0.0f;
            }
        }
    }
    return mask;
}

TEST(BuildMask, PerPeBuildEqualsPerWeightReference) {
    // Non-square arrays with layers larger than the array in both axes (so
    // rows and entries are copies), smaller in one or both, and exact
    // multiples; every fault kind, identity and shuffled columns.
    struct geometry {
        std::size_t rows, cols, fan_in, fan_out;
    };
    const std::vector<geometry> cases = {
        {3, 5, 17, 13}, {5, 3, 17, 13}, {4, 7, 8, 14}, {6, 2, 5, 9},
        {7, 4, 3, 2},   {2, 6, 11, 1},  {1, 1, 4, 3},  {8, 8, 27, 64},
    };
    const pe_fault kinds[] = {pe_fault::bypassed, pe_fault::stuck_weight_zero,
                              pe_fault::stuck_weight_max, pe_fault::stuck_weight_min};
    rng gen(0x3a5c);
    for (const geometry& g : cases) {
        fault_grid faults(g.rows, g.cols);
        for (std::size_t r = 0; r < g.rows; ++r) {
            for (std::size_t c = 0; c < g.cols; ++c) {
                if (gen.bernoulli(0.3)) { faults.set(r, c, kinds[gen.uniform_index(4)]); }
            }
        }
        std::vector<std::size_t> perm(g.cols);
        for (std::size_t c = 0; c < g.cols; ++c) { perm[c] = c; }
        for (std::size_t c = g.cols; c > 1; --c) {
            std::swap(perm[c - 1], perm[gen.uniform_index(c)]);
        }
        const array_config cfg = tiny_array(g.rows, g.cols);
        for (const bool permuted : {false, true}) {
            const gemm_mapping mapping = permuted
                                             ? gemm_mapping(cfg, g.fan_in, g.fan_out, perm)
                                             : gemm_mapping(cfg, g.fan_in, g.fan_out);
            const tensor got = build_weight_mask(mapping, faults);
            const tensor want = per_weight_mask(mapping, faults);
            ASSERT_EQ(got.shape(), want.shape());
            EXPECT_EQ(std::memcmp(got.raw(), want.raw(), got.numel() * sizeof(float)), 0)
                << g.rows << "x" << g.cols << " array, layer " << g.fan_out << "x" << g.fan_in
                << (permuted ? ", permuted" : ", identity");
        }
    }
}

TEST(AttachMasks, ConvMaskMatchesGemmView) {
    // The conv weight [O, C, kh, kw] must be masked exactly like its
    // lowered GEMM view [O, C*kh*kw].
    rng gen(2);
    sequential model;
    model.emplace<conv2d_layer>(conv2d_spec{3, 4, 3, 3, 1, 1}, gen);
    const array_config cfg = tiny_array(8, 8);
    fault_grid faults(8, 8);
    faults.set(5, 2, pe_fault::bypassed);
    attach_fault_masks(model, cfg, faults);

    const mapped_layer layer = collect_mapped_layers(model)[0];
    const tensor expected = build_weight_mask(gemm_mapping(cfg, 27, 4), faults);
    for (std::size_t o = 0; o < 4; ++o) {
        for (std::size_t i = 0; i < 27; ++i) {
            EXPECT_EQ(layer.weight->mask[o * 27 + i], expected.at2(o, i));
        }
    }
}

TEST(AttachMasks, ZeroFaultsMasksNothing) {
    rng gen(3);
    sequential model;
    model.emplace<linear>(6, 6, gen);
    const array_config cfg = tiny_array(8, 8);
    const mask_stats stats = attach_fault_masks(model, cfg, fault_grid(8, 8));
    EXPECT_EQ(stats.masked_weights, 0u);
    EXPECT_DOUBLE_EQ(stats.masked_fraction(), 0.0);
}

TEST(ClearMasks, RemovesAllMasks) {
    rng gen(4);
    sequential model;
    model.emplace<linear>(4, 4, gen);
    const array_config cfg = tiny_array(4, 4);
    fault_grid faults(4, 4);
    faults.set(0, 0, pe_fault::bypassed);
    attach_fault_masks(model, cfg, faults);
    EXPECT_TRUE(model.parameters()[0]->has_mask());
    clear_fault_masks(model);
    for (parameter* p : model.parameters()) { EXPECT_FALSE(p->has_mask()); }
}

TEST(AttachMasksPermuted, PermutationChangesMaskedSet) {
    rng gen(5);
    sequential model;
    model.emplace<linear>(4, 4, gen);
    const array_config cfg = tiny_array(4, 4);
    fault_grid faults(4, 4);
    faults.set(0, 0, pe_fault::bypassed);  // column 0 damaged

    attach_fault_masks(model, cfg, faults);
    const tensor identity_mask = model.parameters()[0]->mask;
    clear_fault_masks(model);

    // Route logical column 0 to physical column 3 (healthy) instead.
    attach_fault_masks_permuted(model, cfg, faults, {{3, 1, 2, 0}});
    const tensor permuted_mask = model.parameters()[0]->mask;
    EXPECT_FALSE(identity_mask == permuted_mask);
    EXPECT_EQ(identity_mask.at2(0, 0), 0.0f);
    EXPECT_EQ(permuted_mask.at2(0, 0), 1.0f);   // output 0 now safe
    EXPECT_EQ(permuted_mask.at2(3, 0), 0.0f);   // output 3 took the hit
}

TEST(AttachMasksPermuted, WrongPermCountThrows) {
    rng gen(6);
    sequential model;
    model.emplace<linear>(4, 4, gen);
    model.emplace<linear>(4, 4, gen);
    const array_config cfg = tiny_array(4, 4);
    EXPECT_THROW(attach_fault_masks_permuted(model, cfg, fault_grid(4, 4), {{0, 1, 2, 3}}),
                 error);
}

TEST(EffectiveRate, WholeArrayMatchesGridRate) {
    rng gen(7);
    sequential model;
    model.emplace<linear>(4, 4, gen);
    const array_config cfg = tiny_array(8, 8);
    random_fault_config fc;
    fc.fault_rate = 0.25;
    const fault_grid faults = generate_random_faults(cfg, fc, 8);
    EXPECT_DOUBLE_EQ(
        effective_fault_rate(model, cfg, faults, effective_rate_kind::whole_array),
        faults.fault_rate());
}

TEST(EffectiveRate, UsedSubarrayIgnoresUnusedRegion) {
    rng gen(8);
    sequential model;
    model.emplace<linear>(2, 2, gen);  // uses only the 2x2 corner
    const array_config cfg = tiny_array(8, 8);
    fault_grid faults(8, 8);
    faults.set(7, 7, pe_fault::bypassed);  // far outside the used corner
    EXPECT_DOUBLE_EQ(
        effective_fault_rate(model, cfg, faults, effective_rate_kind::used_subarray), 0.0);
    faults.set(0, 0, pe_fault::bypassed);
    EXPECT_DOUBLE_EQ(
        effective_fault_rate(model, cfg, faults, effective_rate_kind::used_subarray), 0.25);
}

TEST(EffectiveRate, WeightWeightedMatchesMaskStats) {
    rng gen(9);
    sequential model;
    model.emplace<linear>(6, 10, gen);
    model.emplace<relu_layer>();
    model.emplace<linear>(10, 4, gen);
    const array_config cfg = tiny_array(8, 8);
    random_fault_config fc;
    fc.fault_rate = 0.2;
    const fault_grid faults = generate_random_faults(cfg, fc, 10);

    const double estimated =
        effective_fault_rate(model, cfg, faults, effective_rate_kind::weight_weighted);
    const mask_stats stats = attach_fault_masks(model, cfg, faults);
    EXPECT_NEAR(estimated, stats.masked_fraction(), 1e-9);
}

TEST(EffectiveRate, TiledLayersConvergeToArrayRate) {
    // When layers tile the array exactly, all three estimators agree.
    rng gen(10);
    sequential model;
    model.emplace<linear>(16, 16, gen);  // 2x2 tiles of an 8x8 array
    const array_config cfg = tiny_array(8, 8);
    random_fault_config fc;
    fc.fault_rate = 0.25;
    const fault_grid faults = generate_random_faults(cfg, fc, 11);
    const double whole =
        effective_fault_rate(model, cfg, faults, effective_rate_kind::whole_array);
    const double sub =
        effective_fault_rate(model, cfg, faults, effective_rate_kind::used_subarray);
    const double weighted =
        effective_fault_rate(model, cfg, faults, effective_rate_kind::weight_weighted);
    EXPECT_DOUBLE_EQ(whole, sub);
    EXPECT_DOUBLE_EQ(whole, weighted);
}

// Property sweep: the masked-weight fraction tracks the injected fault rate
// for layers that tile the array exactly.
class MaskFractionTracksRate : public ::testing::TestWithParam<double> {};

TEST_P(MaskFractionTracksRate, ExactForFullTiling) {
    const double rate = GetParam();
    rng gen(42);
    sequential model;
    model.emplace<linear>(16, 16, gen);
    const array_config cfg = tiny_array(8, 8);
    random_fault_config fc;
    fc.fault_rate = rate;
    const fault_grid faults = generate_random_faults(cfg, fc, 77);
    const mask_stats stats = attach_fault_masks(model, cfg, faults);
    EXPECT_NEAR(stats.masked_fraction(), faults.fault_rate(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Rates, MaskFractionTracksRate,
                         ::testing::Values(0.0, 0.05, 0.1, 0.25, 0.5, 0.9));

TEST(FaultStateGuard, SwapMasksMidEpisodeKeepsThePristineRestoreGuarantee) {
    // Timeline events swap masks mid-episode (a strike grows the fault
    // map); the guard must install the new mask immediately AND still
    // restore the pristine unmasked snapshot on exit.
    rng gen(11);
    sequential model;
    model.emplace<linear>(4, 4, gen);
    const model_snapshot snapshot = snapshot_parameters(model.parameters());
    const array_config cfg = tiny_array(4, 4);
    fault_grid first(4, 4);
    first.set(0, 0, pe_fault::bypassed);
    fault_grid second = first;
    second.set(1, 1, pe_fault::bypassed);  // the mid-episode strike grows the map
    {
        fault_state_guard guard(model, snapshot);
        attach_fault_masks(model, cfg, first);
        EXPECT_EQ(guard.swaps(), 0u);
        const mask_stats stats = guard.swap_masks(cfg, second);
        EXPECT_EQ(guard.swaps(), 1u);
        EXPECT_EQ(stats.masked_weights, 2u);
        // The new mask is live: both fault positions masked and zeroed.
        parameter* weight = model.parameters()[0];
        ASSERT_TRUE(weight->has_mask());
        EXPECT_EQ(weight->mask.at2(0, 0), 0.0f);
        EXPECT_EQ(weight->mask.at2(1, 1), 0.0f);
        EXPECT_EQ(weight->value.at2(0, 0), 0.0f);
        EXPECT_EQ(weight->value.at2(1, 1), 0.0f);
    }
    // Destructor: masks cleared, snapshot restored — as if nothing happened.
    for (parameter* p : model.parameters()) { EXPECT_FALSE(p->has_mask()); }
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
        EXPECT_TRUE(model.parameters()[i]->value == snapshot.values[i]);
    }
}

}  // namespace
}  // namespace reduce
