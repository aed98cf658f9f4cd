// Tests for fault-map generation, chip fleets, and serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fault/chip.h"
#include "fault/serialization.h"
#include "util/base64.h"
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

/// Unsigned LEB128, written independently of the codec under test.
std::string varint(std::uint64_t v) {
    std::string out;
    do {
        const auto low = static_cast<unsigned char>(v & 0x7f);
        v >>= 7;
        out.push_back(static_cast<char>(v != 0 ? (low | 0x80) : low));
    } while (v != 0);
    return out;
}

/// A hand-built version-1 map: the tag, then each value as a varint.
std::string map_bytes(std::initializer_list<std::uint64_t> values) {
    std::string out = "RFM1";
    for (const std::uint64_t v : values) { out += varint(v); }
    return out;
}

TEST(Serialization, FaultMapBytesArePinned) {
    // Any change to the format must fail here: bump the version tag instead.
    fault_grid grid(20, 20);
    grid.set(0, 0, pe_fault::bypassed);            // index 0
    grid.set(0, 5, pe_fault::bypassed);            // index 5
    grid.set(15, 0, pe_fault::stuck_weight_zero);  // index 300: a two-byte varint
    grid.set(19, 19, pe_fault::stuck_weight_max);  // index 399
    grid.set(0, 7, pe_fault::stuck_weight_min);    // index 7
    grid.set(0, 8, pe_fault::stuck_weight_min);    // index 8
    const std::string golden("RFM1"
                             "\x14\x14"          // rows, cols
                             "\x02\x01\x01\x02"  // per-kind counts
                             "\x00\x05"          // bypassed: 0, +5
                             "\xac\x02"          // stuck_weight_zero: 300
                             "\x8f\x03"          // stuck_weight_max: 399
                             "\x07\x01",         // stuck_weight_min: 7, +1
                             18);
    EXPECT_EQ(fault_grid_to_bytes(grid), golden);
    EXPECT_TRUE(fault_grid_from_bytes(golden) == grid);
    // A healthy grid is its header alone.
    EXPECT_EQ(fault_grid_to_bytes(fault_grid(2, 3)), std::string("RFM1\x02\x03\0\0\0\0", 10));
}

TEST(Serialization, FaultMapRoundTripsSeededRandomAndLineMaps) {
    // 1x1 up to the 1024x1024 cap, healthy to fully faulty; random stuck
    // kinds mix all four faulty kinds in one map.
    const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
        {1, 1}, {1, 9}, {7, 3}, {16, 16}, {256, 256}, {1024, 1024}};
    std::uint64_t seed = 1;
    for (const auto& [rows, cols] : shapes) {
        array_config array;
        array.rows = rows;
        array.cols = cols;
        for (const double rate : {0.0, 0.05, 0.3, 1.0}) {
            random_fault_config rc;
            rc.fault_rate = rate;
            rc.count_mode = fault_count_mode::bernoulli;
            rc.kind_mix = fault_kind_mix::random_stuck;
            line_fault_config lc;
            lc.fault_rate = rate;
            lc.kind_mix = fault_kind_mix::random_stuck;
            for (const fault_grid& grid : {generate_random_faults(array, rc, ++seed),
                                           generate_line_faults(array, lc, ++seed)}) {
                const std::string bytes = fault_grid_to_bytes(grid);
                const fault_grid back = fault_grid_from_bytes(bytes);
                EXPECT_TRUE(back == grid) << rows << "x" << cols << " rate " << rate;
                EXPECT_EQ(fault_grid_to_bytes(back), bytes);
            }
        }
    }
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
    // The map must be base64 text of codec bytes.
    for (const char* map : {"\"not base64!\"", "{\"rows\": 2}", "\"UkZNMQ==\""}) {
        EXPECT_THROW(chip_from_json(json_parse(
                         std::string("{\"id\": 1, \"seed\": \"7\", \"nominal_fault_rate\": 0.1, "
                                     "\"fault_map\": ") +
                         map + "}")),
                     io_error)
            << map;
    }
}

TEST(Serialization, FaultMapDecoderAcceptsTheLargestLegalMap) {
    const fault_grid grid =
        fault_grid_from_bytes(map_bytes({1024, 1024, 1, 0, 0, 0, fault_map_max_pes - 1}));
    EXPECT_EQ(grid.pe_count(), fault_map_max_pes);
    EXPECT_EQ(grid.at(1023, 1023), pe_fault::bypassed);
    EXPECT_EQ(grid.faulty_count(), 1u);
}

TEST(Serialization, FaultMapDecoderRejectsNonPositiveExtents) {
    EXPECT_THROW(fault_grid_from_bytes(map_bytes({0, 4, 0, 0, 0, 0})), io_error);
    EXPECT_THROW(fault_grid_from_bytes(map_bytes({4, 0, 0, 0, 0, 0})), io_error);
    EXPECT_THROW(fault_grid_from_bytes(map_bytes({0, 0, 0, 0, 0, 0})), io_error);
}

TEST(Serialization, FaultMapDecoderRejectsOversizedAndOverflowingExtents) {
    // 2^32 x 2^32 wraps to 0 in 64-bit arithmetic; 2^63 x 2 wraps to 0 too.
    const std::uint64_t big = std::uint64_t{1} << 32;
    for (const auto& [rows, cols] : std::vector<std::pair<std::uint64_t, std::uint64_t>>{
             {big, big}, {std::uint64_t{1} << 63, 2}, {2048, 1024}, {1048577, 1},
             {1, 1048577}, {~std::uint64_t{0}, 1}}) {
        EXPECT_THROW(fault_grid_from_bytes(map_bytes({rows, cols, 0, 0, 0, 0})), io_error)
            << rows << "x" << cols;
    }
}

TEST(Serialization, FaultMapDecoderRejectsOutOfRangePes) {
    // A 4x5 grid has PEs 0..19.
    EXPECT_THROW(fault_grid_from_bytes(map_bytes({4, 5, 1, 0, 0, 0, 20})), io_error);
    EXPECT_THROW(fault_grid_from_bytes(map_bytes({4, 5, 0, 0, 0, 1, 20})), io_error);
    // A gap that walks off the end, and one that would wrap 64 bits.
    EXPECT_THROW(fault_grid_from_bytes(map_bytes({4, 5, 0, 2, 0, 0, 19, 1})), io_error);
    EXPECT_THROW(fault_grid_from_bytes(map_bytes({4, 5, 2, 0, 0, 0, 3, ~std::uint64_t{0}})),
                 io_error);
}

TEST(Serialization, FaultMapDecoderRejectsUnknownKinds) {
    // Kinds are positional: a writer with a fifth kind would append a fifth
    // list, which this decoder must refuse rather than silently drop.
    const std::string five_kinds = map_bytes({4, 4, 0, 0, 0, 0, 1}) + varint(5);
    EXPECT_THROW(fault_grid_from_bytes(five_kinds), io_error);
    // The chip wrapper surfaces the same typed error.
    EXPECT_THROW(chip_from_json(json_parse(
                     "{\"id\": 1, \"seed\": \"7\", \"nominal_fault_rate\": 0.1, "
                     "\"fault_map\": \"" +
                     base64_encode(five_kinds) + "\"}")),
                 io_error);
}

TEST(Serialization, FaultMapDecoderRejectsDuplicatePes) {
    // Within one kind (a zero gap) and across two kinds.
    EXPECT_THROW(fault_grid_from_bytes(map_bytes({4, 4, 2, 0, 0, 0, 3, 0})), io_error);
    EXPECT_THROW(fault_grid_from_bytes(map_bytes({4, 4, 1, 0, 0, 1, 3, 3})), io_error);
    // Index 0 listed first is not a duplicate.
    EXPECT_EQ(fault_grid_from_bytes(map_bytes({4, 4, 2, 0, 0, 0, 0, 1})).faulty_count(), 2u);
}

TEST(Serialization, FaultMapDecoderRejectsCountOverflow) {
    // One count over the PE count, counts that sum past it, and a count
    // that would wrap the running total.
    EXPECT_THROW(fault_grid_from_bytes(map_bytes({2, 2, 5, 0, 0, 0})), io_error);
    EXPECT_THROW(fault_grid_from_bytes(map_bytes({2, 2, 3, 0, 2, 0})), io_error);
    EXPECT_THROW(fault_grid_from_bytes(map_bytes({2, 2, 1, ~std::uint64_t{0}, 0, 0})), io_error);
}

TEST(Serialization, FaultMapDecoderRejectsTruncationAnywhere) {
    fault_grid grid(40, 40);  // a PE index >= 128 makes a two-byte varint
    grid.set(3, 4, pe_fault::bypassed);
    grid.set(39, 39, pe_fault::stuck_weight_min);
    const std::string bytes = fault_grid_to_bytes(grid);
    for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
        EXPECT_THROW(fault_grid_from_bytes(bytes.substr(0, keep)), io_error) << "kept " << keep;
    }
    // A varint cut after its continuation byte.
    EXPECT_THROW(fault_grid_from_bytes(std::string("RFM1\x80", 5)), io_error);
}

TEST(Serialization, FaultMapDecoderRejectsTrailingBytes) {
    const std::string bytes = fault_grid_to_bytes(fault_grid(3, 3));
    EXPECT_THROW(fault_grid_from_bytes(bytes + std::string(1, '\0')), io_error);
}

TEST(Serialization, FaultMapDecoderRejectsWrongMagicAndVersion) {
    const std::string body = map_bytes({2, 2, 0, 0, 0, 0}).substr(4);
    EXPECT_NO_THROW(fault_grid_from_bytes("RFM1" + body));
    for (const std::string tag : {"RFM2", "RFM0", "RFX1", "rfm1", "RF", ""}) {
        EXPECT_THROW(fault_grid_from_bytes(tag + body), io_error) << tag;
    }
}

TEST(Serialization, FaultMapDecoderRejectsOverlongAndOverflowingVarints) {
    // 4 as 0x84 0x00: the same value with a redundant zero byte.
    EXPECT_THROW(fault_grid_from_bytes(std::string("RFM1\x84\x00\x04\0\0\0\0", 11)), io_error);
    // 2^64 needs an eleventh byte; a tenth byte above 1 overflows too.
    const std::string ten_continued(10, '\xff');
    EXPECT_THROW(fault_grid_from_bytes("RFM1" + ten_continued + std::string(1, '\x01')),
                 io_error);
    EXPECT_THROW(fault_grid_from_bytes("RFM1" + std::string(9, '\xff') + std::string(1, '\x02')),
                 io_error);
}

}  // namespace
}  // namespace reduce
