// Tests for fault-map generation, chip fleets, and serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fault/chip.h"
#include "fault/serialization.h"
#include "util/error.h"

namespace reduce {
namespace {

array_config small_array() {
    array_config cfg;
    cfg.rows = 16;
    cfg.cols = 16;
    return cfg;
}

TEST(RandomFaults, ExactModeHitsTargetCount) {
    const array_config cfg = small_array();
    random_fault_config fc;
    fc.fault_rate = 0.25;
    fc.count_mode = fault_count_mode::exact;
    const fault_grid grid = generate_random_faults(cfg, fc, 1);
    EXPECT_EQ(grid.faulty_count(), 64u);  // 0.25 * 256
    EXPECT_DOUBLE_EQ(grid.fault_rate(), 0.25);
}

TEST(RandomFaults, ExactModeRoundsToNearest) {
    array_config cfg;
    cfg.rows = 3;
    cfg.cols = 3;
    random_fault_config fc;
    fc.fault_rate = 0.5;  // 4.5 PEs → rounds to 4 or 5 (llround → 4? 4.5→5)
    const fault_grid grid = generate_random_faults(cfg, fc, 2);
    EXPECT_EQ(grid.faulty_count(), 5u);
}

TEST(RandomFaults, BernoulliModeApproximatesRate) {
    array_config cfg;
    cfg.rows = 64;
    cfg.cols = 64;
    random_fault_config fc;
    fc.fault_rate = 0.1;
    fc.count_mode = fault_count_mode::bernoulli;
    const fault_grid grid = generate_random_faults(cfg, fc, 3);
    EXPECT_NEAR(grid.fault_rate(), 0.1, 0.02);
}

TEST(RandomFaults, ZeroAndFullRates) {
    const array_config cfg = small_array();
    random_fault_config fc;
    fc.fault_rate = 0.0;
    EXPECT_EQ(generate_random_faults(cfg, fc, 4).faulty_count(), 0u);
    fc.fault_rate = 1.0;
    EXPECT_EQ(generate_random_faults(cfg, fc, 5).faulty_count(), cfg.pe_count());
    fc.fault_rate = 1.5;
    EXPECT_THROW(generate_random_faults(cfg, fc, 6), error);
}

TEST(RandomFaults, SeedDeterminism) {
    const array_config cfg = small_array();
    random_fault_config fc;
    fc.fault_rate = 0.2;
    const fault_grid a = generate_random_faults(cfg, fc, 7);
    const fault_grid b = generate_random_faults(cfg, fc, 7);
    EXPECT_TRUE(a == b);
    const fault_grid c = generate_random_faults(cfg, fc, 8);
    EXPECT_FALSE(a == c);
}

TEST(RandomFaults, KindMixControlsBehaviour) {
    const array_config cfg = small_array();
    random_fault_config fc;
    fc.fault_rate = 0.3;
    fc.kind_mix = fault_kind_mix::all_bypassed;
    const fault_grid bypassed = generate_random_faults(cfg, fc, 9);
    for (const pe_fault f : bypassed.states()) {
        EXPECT_TRUE(f == pe_fault::healthy || f == pe_fault::bypassed);
    }
    fc.kind_mix = fault_kind_mix::all_stuck_zero;
    const fault_grid stuck = generate_random_faults(cfg, fc, 10);
    for (const pe_fault f : stuck.states()) {
        EXPECT_TRUE(f == pe_fault::healthy || f == pe_fault::stuck_weight_zero);
    }
    fc.kind_mix = fault_kind_mix::random_stuck;
    std::set<pe_fault> kinds;
    const fault_grid mixed = generate_random_faults(cfg, fc, 11);
    for (const pe_fault f : mixed.states()) {
        if (is_faulty(f)) { kinds.insert(f); }
    }
    EXPECT_GE(kinds.size(), 2u);  // at least two distinct stuck kinds drawn
}

TEST(ClusteredFaults, HitsTargetCount) {
    const array_config cfg = small_array();
    clustered_fault_config cc;
    cc.fault_rate = 0.2;
    cc.cluster_count = 2;
    const fault_grid grid = generate_clustered_faults(cfg, cc, 12);
    EXPECT_EQ(grid.faulty_count(),
              static_cast<std::size_t>(0.2 * static_cast<double>(cfg.pe_count()) + 0.5));
}

TEST(ClusteredFaults, MoreSpatiallyCorrelatedThanUniform) {
    // Mean pairwise distance between faulty PEs should be smaller for the
    // clustered model than for the uniform model at equal rate.
    array_config cfg;
    cfg.rows = 32;
    cfg.cols = 32;
    const auto mean_pair_distance = [](const fault_grid& grid) {
        std::vector<std::pair<double, double>> pts;
        for (std::size_t r = 0; r < grid.rows(); ++r) {
            for (std::size_t c = 0; c < grid.cols(); ++c) {
                if (is_faulty(grid.at(r, c))) {
                    pts.emplace_back(static_cast<double>(r), static_cast<double>(c));
                }
            }
        }
        double total = 0.0;
        std::size_t pairs = 0;
        for (std::size_t i = 0; i < pts.size(); ++i) {
            for (std::size_t j = i + 1; j < pts.size(); ++j) {
                total += std::hypot(pts[i].first - pts[j].first,
                                    pts[i].second - pts[j].second);
                ++pairs;
            }
        }
        return total / static_cast<double>(pairs);
    };
    clustered_fault_config cc;
    cc.fault_rate = 0.05;
    cc.cluster_count = 3;
    cc.spread = 1.5;
    random_fault_config rc;
    rc.fault_rate = 0.05;
    const double clustered = mean_pair_distance(generate_clustered_faults(cfg, cc, 13));
    const double uniform = mean_pair_distance(generate_random_faults(cfg, rc, 13));
    EXPECT_LT(clustered, uniform * 0.8);
}

TEST(ClusteredFaults, SaturatedClustersFallBackToUniform) {
    array_config cfg;
    cfg.rows = 8;
    cfg.cols = 8;
    clustered_fault_config cc;
    cc.fault_rate = 0.9;  // far more than clusters can hold locally
    cc.cluster_count = 1;
    cc.spread = 0.5;
    const fault_grid grid = generate_clustered_faults(cfg, cc, 14);
    EXPECT_EQ(grid.faulty_count(), 58u);  // round(0.9 * 64)
}

TEST(Fleet, GeneratesRequestedChips) {
    const array_config cfg = small_array();
    fleet_config fleet_cfg;
    fleet_cfg.num_chips = 10;
    fleet_cfg.rate_lo = 0.05;
    fleet_cfg.rate_hi = 0.25;
    const std::vector<chip> fleet = make_fleet(cfg, fleet_cfg);
    ASSERT_EQ(fleet.size(), 10u);
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        EXPECT_EQ(fleet[i].id, i);
        EXPECT_GE(fleet[i].nominal_fault_rate, 0.05);
        EXPECT_LE(fleet[i].nominal_fault_rate, 0.25);
        EXPECT_NEAR(fleet[i].measured_fault_rate(), fleet[i].nominal_fault_rate, 0.05);
    }
}

TEST(Fleet, ChipsHaveDistinctMaps) {
    const array_config cfg = small_array();
    fleet_config fleet_cfg;
    fleet_cfg.num_chips = 5;
    fleet_cfg.distribution = rate_distribution::fixed;
    fleet_cfg.rate_lo = 0.2;
    const std::vector<chip> fleet = make_fleet(cfg, fleet_cfg);
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        for (std::size_t j = i + 1; j < fleet.size(); ++j) {
            EXPECT_FALSE(fleet[i].faults == fleet[j].faults)
                << "chips " << i << " and " << j << " share a fault map";
        }
    }
}

TEST(Fleet, DeterministicGivenSeed) {
    const array_config cfg = small_array();
    fleet_config fleet_cfg;
    fleet_cfg.num_chips = 4;
    const std::vector<chip> a = make_fleet(cfg, fleet_cfg);
    const std::vector<chip> b = make_fleet(cfg, fleet_cfg);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(a[i].faults == b[i].faults);
        EXPECT_EQ(a[i].seed, b[i].seed);
    }
}

TEST(Fleet, LognormalClampedToRange) {
    const array_config cfg = small_array();
    fleet_config fleet_cfg;
    fleet_cfg.num_chips = 50;
    fleet_cfg.distribution = rate_distribution::lognormal;
    fleet_cfg.rate_lo = 0.01;
    fleet_cfg.rate_hi = 0.2;
    for (const chip& c : make_fleet(cfg, fleet_cfg)) {
        EXPECT_GE(c.nominal_fault_rate, 0.01);
        EXPECT_LE(c.nominal_fault_rate, 0.2);
    }
}

TEST(Fleet, RejectsBadConfigs) {
    const array_config cfg = small_array();
    fleet_config fleet_cfg;
    fleet_cfg.num_chips = 0;
    EXPECT_THROW(make_fleet(cfg, fleet_cfg), error);
    fleet_cfg.num_chips = 1;
    fleet_cfg.rate_lo = 0.5;
    fleet_cfg.rate_hi = 0.1;
    EXPECT_THROW(make_fleet(cfg, fleet_cfg), error);
}

TEST(Fleet, DistributionNamesParse) {
    EXPECT_EQ(rate_distribution_from_string("uniform"), rate_distribution::uniform);
    EXPECT_EQ(rate_distribution_from_string("lognormal"), rate_distribution::lognormal);
    EXPECT_EQ(rate_distribution_from_string("fixed"), rate_distribution::fixed);
    EXPECT_THROW(rate_distribution_from_string("gaussian"), error);
}

TEST(Serialization, FaultGridJsonRoundTrip) {
    fault_grid grid(4, 5);
    grid.set(0, 0, pe_fault::bypassed);
    grid.set(3, 4, pe_fault::stuck_weight_max);
    grid.set(1, 2, pe_fault::stuck_weight_zero);
    const fault_grid back = fault_grid_from_json(fault_grid_to_json(grid));
    EXPECT_TRUE(grid == back);
}

TEST(Serialization, EmptyGridRoundTrip) {
    const fault_grid grid(2, 2);
    EXPECT_TRUE(fault_grid_from_json(fault_grid_to_json(grid)) == grid);
}

TEST(Serialization, ChipRoundTrip) {
    const array_config cfg = small_array();
    fleet_config fleet_cfg;
    fleet_cfg.num_chips = 1;
    const chip original = make_fleet(cfg, fleet_cfg)[0];
    const chip back = chip_from_json(chip_to_json(original));
    EXPECT_EQ(back.id, original.id);
    EXPECT_EQ(back.seed, original.seed);
    EXPECT_DOUBLE_EQ(back.nominal_fault_rate, original.nominal_fault_rate);
    EXPECT_TRUE(back.faults == original.faults);
}

TEST(Serialization, FleetFileRoundTrip) {
    const array_config cfg = small_array();
    fleet_config fleet_cfg;
    fleet_cfg.num_chips = 3;
    const std::vector<chip> fleet = make_fleet(cfg, fleet_cfg);
    const std::string path = testing::TempDir() + "reduce_fleet_test.json";
    save_fleet(path, fleet);
    const std::vector<chip> back = load_fleet(path);
    ASSERT_EQ(back.size(), fleet.size());
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        EXPECT_TRUE(back[i].faults == fleet[i].faults);
    }
    std::remove(path.c_str());
}

TEST(Serialization, MalformedChipJsonThrows) {
    EXPECT_THROW(chip_from_json(json_parse("{\"id\": 1}")), error);
    EXPECT_THROW(fault_grid_from_json(json_parse("{\"rows\": 2}")), error);
}

/// A fault map document with the given extents and one fault entry.
std::string fault_map_text(const std::string& rows, const std::string& cols,
                           const std::string& r, const std::string& c,
                           const std::string& kind) {
    return "{\"rows\": " + rows + ", \"cols\": " + cols + ", \"faults\": [{\"r\": " + r +
           ", \"c\": " + c + ", \"kind\": \"" + kind + "\"}]}";
}

TEST(Serialization, FaultMapDecoderAcceptsTheLargestLegalMap) {
    const fault_grid grid = fault_grid_from_json(
        json_parse(fault_map_text("1024", "1024", "1023", "1023", "bypassed")));
    EXPECT_EQ(grid.pe_count(), fault_map_max_pes);
    EXPECT_EQ(grid.at(1023, 1023), pe_fault::bypassed);
}

TEST(Serialization, FaultMapDecoderRejectsNonPositiveExtents) {
    for (const char* bad : {"0", "-1", "-4294967296", "2.5"}) {
        EXPECT_THROW(fault_grid_from_json(json_parse(fault_map_text(bad, "4", "0", "0",
                                                                    "bypassed"))),
                     io_error)
            << "rows " << bad;
        EXPECT_THROW(fault_grid_from_json(json_parse(fault_map_text("4", bad, "0", "0",
                                                                    "bypassed"))),
                     io_error)
            << "cols " << bad;
    }
}

TEST(Serialization, FaultMapDecoderRejectsOversizedAndOverflowingExtents) {
    // 2^32 x 2^32 wraps to 0 in 64-bit arithmetic; 1e30 is no size_t at all.
    for (const auto& [rows, cols] : std::vector<std::pair<std::string, std::string>>{
             {"4294967296", "4294967296"}, {"1e30", "4"}, {"2048", "1024"},
             {"1048577", "1"}}) {
        EXPECT_THROW(
            fault_grid_from_json(json_parse(fault_map_text(rows, cols, "0", "0", "bypassed"))),
            io_error)
            << rows << "x" << cols;
    }
}

TEST(Serialization, FaultMapDecoderRejectsOutOfRangePes) {
    for (const auto& [r, c] : std::vector<std::pair<std::string, std::string>>{
             {"4", "0"}, {"0", "5"}, {"-1", "0"}, {"0", "-3"}, {"1.5", "0"}, {"1e20", "0"}}) {
        EXPECT_THROW(fault_grid_from_json(json_parse(fault_map_text("4", "5", r, c,
                                                                    "bypassed"))),
                     io_error)
            << "PE (" << r << "," << c << ")";
    }
}

TEST(Serialization, FaultMapDecoderRejectsUnknownKinds) {
    EXPECT_THROW(fault_grid_from_json(json_parse(fault_map_text("4", "4", "1", "1",
                                                                "stuck_weight_sideways"))),
                 io_error);
    // The chip wrapper surfaces the same typed error.
    EXPECT_THROW(chip_from_json(json_parse(
                     "{\"id\": 1, \"seed\": \"7\", \"nominal_fault_rate\": 0.1, "
                     "\"fault_map\": " +
                     fault_map_text("4", "4", "1", "1", "melted") + "}")),
                 io_error);
}

}  // namespace
}  // namespace reduce
