// Tests for the parallel, cache-aware sweep engine behind Step 1: cell
// enumeration and seeding, thread-count determinism (byte-identical
// tables), cell-partition/merge_into equivalence, merge validation, the
// table decoder (fuzzed), and the fingerprint-keyed on-disk cache.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <string_view>
#include <thread>
#include <typeinfo>

#include "core/resilience.h"
#include "core/workload.h"
#include "dist/chaos.h"
#include "fuzz_mutations.h"
#include "nn/norm.h"
#include "util/error.h"
#include "util/rng.h"

namespace reduce {
namespace {

resilience_config small_config() {
    resilience_config cfg;
    cfg.fault_rates = {0.0, 0.3};
    cfg.repeats = 2;
    cfg.max_epochs = 0.5;
    cfg.seed = 77;
    cfg.context = "sweep-test-workload";
    return cfg;
}

TEST(SweepCells, EnumerationIsCanonicalRateMajor) {
    resilience_config cfg;
    cfg.fault_rates = {0.0, 0.2, 0.4};
    cfg.repeats = 2;
    const std::vector<sweep_cell> cells = enumerate_sweep_cells(cfg);
    ASSERT_EQ(cells.size(), 6u);
    EXPECT_EQ(cells[0].rate_index, 0u);
    EXPECT_EQ(cells[0].repeat, 0u);
    EXPECT_EQ(cells[1].repeat, 1u);
    EXPECT_EQ(cells[2].rate_index, 1u);
    EXPECT_DOUBLE_EQ(cells[4].fault_rate, 0.4);
    for (const sweep_cell& cell : cells) {
        EXPECT_EQ(cell.map_seed, mix_seed(cfg.seed, cell.rate_index, cell.repeat));
    }
    std::set<std::uint64_t> seeds;
    for (const sweep_cell& cell : cells) { seeds.insert(cell.map_seed); }
    EXPECT_EQ(seeds.size(), cells.size());  // no two cells share a seed
}

TEST(Fingerprint, StableAndSensitiveToScience) {
    const resilience_config base = small_config();
    const std::string fp = resilience_fingerprint(base);
    EXPECT_EQ(fp, resilience_fingerprint(base));  // deterministic
    EXPECT_EQ(fp.size(), 32u);

    resilience_config changed = base;
    changed.seed += 1;
    EXPECT_NE(resilience_fingerprint(changed), fp);
    changed = base;
    changed.repeats += 1;
    EXPECT_NE(resilience_fingerprint(changed), fp);
    changed = base;
    changed.fault_rates.push_back(0.5);
    EXPECT_NE(resilience_fingerprint(changed), fp);
    changed = base;
    changed.max_epochs += 1.0;
    EXPECT_NE(resilience_fingerprint(changed), fp);
    // Context separates workloads whose numeric knobs all match — and since
    // it feeds the fingerprint stamped into tables, merge_into() rejects mixing
    // tables from different workloads too.
    changed = base;
    changed.context = "vgg11";
    EXPECT_NE(resilience_fingerprint(changed), fp);
}

TEST(Fingerprint, ExplicitDefaultEvalGridMatchesEmpty) {
    const resilience_config implicit = small_config();
    resilience_config explicit_grid = implicit;
    explicit_grid.eval_grid = make_eval_grid(implicit.max_epochs, 1.0, 0.05, 0.5);
    EXPECT_EQ(resilience_fingerprint(implicit), resilience_fingerprint(explicit_grid));
}

/// Shares one (slow-to-build) workload across every sweep test.
class SweepFixture : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        shared_ = new workload(make_standard_workload(make_test_workload_config()));
    }
    static void TearDownTestSuite() {
        delete shared_;
        shared_ = nullptr;
    }
    workload& w() { return *shared_; }

    resilience_analyzer make_analyzer() {
        return resilience_analyzer(*w().model, w().pretrained, w().train_data, w().test_data,
                                   w().array, w().trainer_cfg);
    }

    static workload* shared_;
};

workload* SweepFixture::shared_ = nullptr;

/// The distributed path in miniature: the grid split two ways (alternate
/// cells), each half through analyze_cells, folded with merge_into.
std::string two_way_fold(resilience_analyzer& analyzer, const resilience_config& cfg,
                         const sweep_options& opts) {
    const std::vector<sweep_cell> grid = enumerate_sweep_cells(cfg);
    std::vector<sweep_cell> halves[2];
    for (std::size_t k = 0; k < grid.size(); ++k) { halves[k % 2].push_back(grid[k]); }
    resilience_table acc = analyzer.analyze_cells(cfg, halves[0], opts);
    EXPECT_FALSE(acc.complete());
    resilience_table::merge_into(acc, analyzer.analyze_cells(cfg, halves[1], opts));
    EXPECT_TRUE(acc.complete());
    return acc.to_json().dump();
}

TEST_F(SweepFixture, ParallelSweepIsByteIdenticalAtAnyThreadCount) {
    resilience_analyzer analyzer = make_analyzer();
    const resilience_config cfg = small_config();

    sweep_options serial;
    serial.threads = 1;
    const std::string reference = analyzer.analyze(cfg, serial).to_json().dump();

    for (const std::size_t threads : {2u, 8u}) {
        sweep_options opts;
        opts.threads = threads;
        EXPECT_EQ(analyzer.analyze(cfg, opts).to_json().dump(), reference)
            << "table diverged at " << threads << " threads";
    }
}

TEST_F(SweepFixture, DeterminismMatrixThreadsByCellPartition) {
    // The execution-knob matrix must collapse to ONE artifact: worker
    // threads (1/2/8) × 2-way cell partition + merge_into all serialize
    // byte-identically.
    resilience_analyzer analyzer = make_analyzer();
    const resilience_config cfg = small_config();

    const std::string reference = analyzer.analyze(cfg, {}).to_json().dump();
    for (const std::size_t threads : {1u, 2u, 8u}) {
        sweep_options opts;
        opts.threads = threads;
        EXPECT_EQ(analyzer.analyze(cfg, opts).to_json().dump(), reference)
            << "threads=" << threads;
        EXPECT_EQ(two_way_fold(analyzer, cfg, opts), reference)
            << "partitioned: threads=" << threads;
    }
}

TEST_F(SweepFixture, StochasticModelSweepIsDeterministicAcrossTheMatrix) {
    // Dropout + batch-norm used to make sweeps thread-count-dependent
    // (ROADMAP item 3): dropout streams continued across cells and running
    // statistics leaked between them. With per-cell reseeding and the
    // guard's buffer restore, the same matrix as above must agree bitwise
    // on a stochastic model too.
    rng gen(21);
    sequential model;
    model.emplace<linear>(16, 32, gen);
    model.emplace<batch_norm1d>(32);
    model.emplace<relu_layer>();
    model.emplace<dropout>(0.2, gen.next_u64());
    model.emplace<linear>(32, 4, gen);
    fault_aware_trainer pretrainer(model, w().train_data, w().test_data, w().trainer_cfg);
    (void)pretrainer.train(1.0);
    const model_snapshot pretrained = snapshot_parameters(model.parameters());
    resilience_analyzer analyzer(model, pretrained, w().train_data, w().test_data, w().array,
                                 w().trainer_cfg);

    resilience_config cfg = small_config();
    const std::string reference = analyzer.analyze(cfg, {}).to_json().dump();
    for (const std::size_t threads : {2u, 8u}) {
        sweep_options opts;
        opts.threads = threads;
        EXPECT_EQ(analyzer.analyze(cfg, opts).to_json().dump(), reference)
            << "stochastic: threads=" << threads;
    }
}

TEST_F(SweepFixture, CacheMissComputesThenHitReuses) {
    const std::string dir =
        (std::filesystem::path(::testing::TempDir()) / "reduce_step1_cache").string();
    std::filesystem::remove_all(dir);
    resilience_analyzer analyzer = make_analyzer();
    const resilience_config cfg = small_config();
    const resilience_cache cache(dir);

    EXPECT_FALSE(cache.load(cfg).has_value());  // cold cache

    const resilience_table computed = analyzer.analyze_cached(cfg, {}, cache);
    EXPECT_TRUE(std::filesystem::exists(cache.path_for(cfg)));

    // Hit: loads the stored artifact and matches the computed table exactly.
    const std::optional<resilience_table> cached = cache.load(cfg);
    ASSERT_TRUE(cached.has_value());
    EXPECT_EQ(cached->to_json(), computed.to_json());
    EXPECT_EQ(analyzer.analyze_cached(cfg, {}, cache).to_json().dump(),
              computed.to_json().dump());

    // A different config is a different key — still a miss.
    resilience_config other = cfg;
    other.seed += 1;
    EXPECT_FALSE(cache.load(other).has_value());
    EXPECT_NE(cache.path_for(other), cache.path_for(cfg));

    std::filesystem::remove_all(dir);
}

TEST(ResilienceCache, PathsSeparateContexts) {
    resilience_config cfg;
    cfg.context = "ctx-a";
    const resilience_cache cache("/tmp/step1");
    EXPECT_EQ(cache.path_for(cfg), "/tmp/step1/step1-" + resilience_fingerprint(cfg) + ".json");
    resilience_config other_ctx = cfg;
    other_ctx.context = "ctx-b";
    EXPECT_NE(cache.path_for(other_ctx), cache.path_for(cfg));
    EXPECT_THROW(resilience_cache(""), error);
}

TEST(ResilienceCache, CorruptEntryIsAMiss) {
    const std::string dir =
        (std::filesystem::path(::testing::TempDir()) / "reduce_corrupt_cache").string();
    std::filesystem::create_directories(dir);
    resilience_config cfg;
    cfg.context = "corrupt-test";
    const resilience_cache cache(dir);
    {
        std::ofstream out(cache.path_for(cfg));
        out << "{not json";
    }
    EXPECT_FALSE(cache.load(cfg).has_value());
    std::filesystem::remove_all(dir);
}

TEST(ResilienceTable, SerializesSchemaVersionAndRejectsForeignOnes) {
    resilience_run run;
    run.fault_rate = 0.1;
    run.trajectory = {{0.0, 0.5}, {1.0, 0.8}};
    const resilience_table table({run}, 1.0);
    json_value json = table.to_json();
    EXPECT_EQ(json.as_object().at("schema_version").as_int(), resilience_schema_version);
    // Round-trips…
    EXPECT_EQ(resilience_table::from_json(json).to_json(), json);
    // …but a foreign schema version is refused.
    json_object forged = json.as_object();
    forged.set("schema_version", json_value(resilience_schema_version + 1));
    EXPECT_THROW(resilience_table::from_json(json_value(std::move(forged))), error);
}

TEST_F(SweepFixture, MergeIntoIncrementallyReproducesTheSingleShot) {
    // The distributed coordinator's fold: single-cell parts arriving one at
    // a time, fused with merge_into, must reproduce the single-shot table
    // byte for byte in ANY arrival order — and complete() must gate the
    // moment the last cell lands, not before.
    resilience_analyzer analyzer = make_analyzer();
    const resilience_config cfg = small_config();
    const std::string reference = analyzer.analyze(cfg, {}).to_json().dump();

    const std::vector<sweep_cell> grid = enumerate_sweep_cells(cfg);
    std::vector<resilience_table> parts;
    for (const sweep_cell& cell : grid) {
        parts.push_back(analyzer.analyze_cells(cfg, {cell}));
    }
    ASSERT_EQ(parts.size(), 4u);

    const auto fold = [&](const std::vector<std::size_t>& order) {
        resilience_table acc = parts[order[0]];
        for (std::size_t i = 1; i < order.size(); ++i) {
            EXPECT_FALSE(acc.complete());
            resilience_table::merge_into(acc, parts[order[i]]);
        }
        EXPECT_TRUE(acc.complete());
        return acc.to_json().dump();
    };
    EXPECT_EQ(fold({0, 1, 2, 3}), reference);
    EXPECT_EQ(fold({3, 1, 0, 2}), reference);  // arrival order is irrelevant
}

TEST_F(SweepFixture, MergeIntoValidatesEveryPart) {
    resilience_analyzer analyzer = make_analyzer();
    const resilience_config cfg = small_config();
    const std::vector<sweep_cell> grid = enumerate_sweep_cells(cfg);
    resilience_table acc = analyzer.analyze_cells(cfg, {grid[0]});
    const std::string before = acc.to_json().dump();

    // Overlap: the same cell arriving twice.
    resilience_table overlap = acc;
    EXPECT_THROW(resilience_table::merge_into(overlap, acc), error);

    // A part from a different sweep config (different fingerprint).
    resilience_config other = cfg;
    other.seed += 1;
    const resilience_table foreign =
        analyzer.analyze_cells(other, {enumerate_sweep_cells(other)[1]});
    EXPECT_THROW(resilience_table::merge_into(acc, foreign), error);

    // Same numeric knobs but a different workload context must be rejected
    // too — the whole point of stamping context into the fingerprint.
    resilience_config other_workload = cfg;
    other_workload.context = "some-other-model";
    const resilience_table foreign_context = analyzer.analyze_cells(other_workload, {grid[1]});
    EXPECT_THROW(resilience_table::merge_into(acc, foreign_context), error);

    // Same fingerprint, different grid size.
    const resilience_table part = analyzer.analyze_cells(cfg, {grid[1]});
    const resilience_table wrong_grid(part.runs(), part.max_epochs(), part.fingerprint(),
                                      part.grid_cells() + 1);
    EXPECT_THROW(resilience_table::merge_into(acc, wrong_grid), error);
    // A rejected part leaves the accumulator as it was.
    EXPECT_EQ(acc.to_json().dump(), before);

    // Partial tables survive a JSON round-trip before the fold (each
    // distributed result crosses the wire this way).
    resilience_table from_wire = resilience_table::from_json(json_parse(before));
    for (const sweep_cell& cell : {grid[1], grid[2], grid[3]}) {
        resilience_table::merge_into(
            from_wire, resilience_table::from_json(json_parse(
                           analyzer.analyze_cells(cfg, {cell}).to_json().dump())));
    }
    EXPECT_TRUE(from_wire.complete());
    EXPECT_EQ(from_wire.to_json().dump(), analyzer.analyze(cfg, {}).to_json().dump());

    // Hand-built tables disagreeing on the budget.
    std::vector<resilience_run> runs_a(1);
    runs_a[0].fault_rate = 0.0;
    runs_a[0].trajectory = {{0.0, 0.5}};
    std::vector<resilience_run> runs_b(1);
    runs_b[0].fault_rate = 0.1;
    runs_b[0].trajectory = {{0.0, 0.5}};
    resilience_table a(std::move(runs_a), 1.0);
    const resilience_table b(std::move(runs_b), 2.0);
    EXPECT_THROW(resilience_table::merge_into(a, b), error);
}

TEST_F(SweepFixture, AnalyzeCellsMatchesAnalyzeAndCatchesConfigDrift) {
    resilience_analyzer analyzer = make_analyzer();
    const resilience_config cfg = small_config();
    const std::string reference = analyzer.analyze(cfg, {}).to_json().dump();
    const std::vector<sweep_cell> grid = enumerate_sweep_cells(cfg);

    // The full grid as one explicit cell list is the single-shot sweep.
    EXPECT_EQ(analyzer.analyze_cells(cfg, grid).to_json().dump(), reference);

    // Arbitrary disjoint batches (the lease-sized batches a distributed
    // worker receives) merge back to the same bytes.
    resilience_table batch_a = analyzer.analyze_cells(cfg, {grid[0], grid[3]});
    const resilience_table batch_b = analyzer.analyze_cells(cfg, {grid[1], grid[2]});
    resilience_table::merge_into(batch_a, batch_b);
    EXPECT_EQ(batch_a.to_json().dump(), reference);

    // Validation: no empty work units...
    EXPECT_THROW((void)analyzer.analyze_cells(cfg, {}), error);
    // ...no cells outside the grid...
    sweep_cell outside = grid[0];
    outside.rate_index = cfg.fault_rates.size();
    EXPECT_THROW((void)analyzer.analyze_cells(cfg, {outside}), error);
    // ...and no cells whose seed drifted from the canonical derivation (a
    // worker built from a different config than it claims).
    sweep_cell drifted = grid[1];
    drifted.map_seed += 1;
    EXPECT_THROW((void)analyzer.analyze_cells(cfg, {drifted}), error);
}

TEST(ResilienceTableDecoder, RejectsNonFiniteOutOfRangeAndBackwardValues) {
    // A valid document with one field swapped at a time. JSON has no
    // infinity: the parser rejects an overflowing 1e999, and the decoder
    // rejects a non-finite value handed to it directly, so no table holding
    // inf can write "inf" — bytes no decoder reads back — into the cache or
    // journal.
    const auto point = [](const std::string& epochs, const std::string& accuracy) {
        return R"({"epochs":)" + epochs + R"(,"accuracy":)" + accuracy + "}";
    };
    const auto doc = [](const std::string& budget, const std::string& rate,
                        const std::vector<std::string>& repeats, const std::string& points) {
        std::string text = R"({"max_epochs":)" + budget + R"(,"grid_cells":2,"runs":[)";
        for (const std::string& repeat : repeats) {
            text += R"({"fault_rate":)" + rate + R"(,"repeat":)" + repeat +
                    R"(,"map_seed":"7","masked_weight_fraction":0.25,"trajectory":[)" + points +
                    "]},";
        }
        text.back() = ']';
        return text + "}";
    };
    const std::string ok = point("0", "0.5") + "," + point("1", "0.8");
    EXPECT_EQ(resilience_table::from_json(json_parse(doc("1", "0.1", {"0", "1"}, ok)))
                  .runs()
                  .size(),
              2u);
    for (const std::string& bad :
         {doc("1", "1e999", {"0"}, ok), doc("1", "1.5", {"0"}, ok), doc("1", "-0.1", {"0"}, ok),
          doc("1e999", "0.1", {"0"}, ok), doc("0", "0.1", {"0"}, ok),
          doc("1", "0.1", {"0.5"}, ok), doc("1", "0.1", {"-1"}, ok),
          doc("1", "0.1", {"1e19"}, ok), doc("1", "0.1", {"0"}, point("0", "1e999")),
          doc("1", "0.1", {"0"}, point("0", "1.01")),
          doc("1", "0.1", {"0"}, ok + "," + point("1e999", "0.5")),
          doc("1", "0.1", {"0"}, ok + "," + point("0.5", "0.7")),  // goes back in time
          doc("1", "0.1", {"0"}, point("0.5", "0.5")),              // no epoch-0 point
          doc("1", "0.1", {"0"}, ""), doc("1", "0.1", {"0", "0"}, ok),  // same cell twice
          doc("1", "0.1", {"0", "1", "2"}, ok),                        // more runs than grid
          std::string(R"({"max_epochs":1,"runs":[]})")}) {
        EXPECT_THROW((void)resilience_table::from_json(json_parse(bad)), io_error) << bad;
    }
    json_object inf_budget = json_parse(doc("1", "0.1", {"0"}, ok)).as_object();
    inf_budget.set("max_epochs", json_value(std::numeric_limits<double>::infinity()));
    EXPECT_THROW((void)resilience_table::from_json(json_value(std::move(inf_budget))), io_error);
}

// --- Step-1 table decoder fuzzing: real analyze_cells tables, mutated, ---
// --- truncated, spliced and oversized by the chaos RNG                 ---

/// The only acceptable outcomes for any input: a typed reduce::error (a
/// subclass, never the base), or a table whose encoding decodes back to the
/// same bytes (any other exception escapes and fails the test). Returns
/// whether it was accepted.
bool typed_error_or_stable(const std::string& text, const std::string& what) {
    const auto recode = [](const std::string& in) {
        return resilience_table::from_json(json_parse(in)).to_json().dump();
    };
    std::string once;
    try {
        once = recode(text);
    } catch (const error& e) {
        EXPECT_NE(typeid(e), typeid(error)) << what << ": untyped error " << e.what();
        return false;
    }
    try {
        EXPECT_EQ(recode(once), once) << what;
    } catch (const std::exception& e) {
        ADD_FAILURE() << what << ": the re-encoding does not decode: " << e.what();
    }
    return true;
}

TEST_F(SweepFixture, TableDecoderFuzzYieldsTypedErrorsOrStableRoundTrips) {
    dist::chaos_config chaos;
    chaos.seed = 20261017;
    dist::chaos_schedule schedule(chaos, 4);
    rng& random = schedule.random();

    // Valid seeds: the full table and each single-cell table, as the cache
    // and a worker's result carry them.
    resilience_analyzer analyzer = make_analyzer();
    const resilience_config cfg = small_config();
    const std::vector<sweep_cell> grid = enumerate_sweep_cells(cfg);
    std::vector<std::string> seeds = {analyzer.analyze_cells(cfg, grid).to_json().dump()};
    for (const sweep_cell& cell : grid) {
        seeds.push_back(analyzer.analyze_cells(cfg, {cell}).to_json().dump());
    }
    // Extreme numbers for the oversize mutation: out of range, non-finite,
    // non-integral, past 2^63 and 2^64.
    const std::vector<std::string> extremes = {
        "1e999", "-1e999", "1e308", "-1", "2", "0.5", "1.5", "-0.5", "1e19",
        "18446744073709551616", "9223372036854775807", "0", "-0", "1e-320"};

    std::size_t accepted = 0;
    std::size_t rejected = 0;
    for (int trial = 0; trial < 3000; ++trial) {
        std::string text = seeds[random.uniform_index(seeds.size())];
        fuzz::mutate(random, text, seeds, [&](std::string& t) {
            // Swap one number for an extreme one.
            const auto in = [](std::string_view set, char c) {
                return set.find(c) != std::string_view::npos;
            };
            std::vector<std::size_t> numbers;
            for (std::size_t i = 1; i < t.size(); ++i) {
                if (in(":[,", t[i - 1]) && in("-0123456789", t[i])) { numbers.push_back(i); }
            }
            const std::size_t at = numbers[random.uniform_index(numbers.size())];
            t.replace(at, t.find_first_of(",]}", at) - at,
                      extremes[random.uniform_index(extremes.size())]);
        });
        ++(typed_error_or_stable(text, "trial " + std::to_string(trial)) ? accepted
                                                                           : rejected);
    }
    // The mutations must exercise both outcomes, or the test proves little.
    EXPECT_GT(rejected, 1000u);
    EXPECT_GT(accepted, 100u);
}

TEST(ResilienceCache, ConcurrentStoresLeaveOneValidEntryAndNoLitter) {
    // Many writers storing the same artifact concurrently (the distributed
    // coordinator next to a local sweep, say) must never corrupt the entry:
    // each writes its own uniquely-named temp file and renames atomically.
    const std::string dir =
        (std::filesystem::path(::testing::TempDir()) / "reduce_race_cache").string();
    std::filesystem::remove_all(dir);

    resilience_config cfg;
    cfg.fault_rates = {0.1};
    cfg.repeats = 1;
    cfg.max_epochs = 1.0;
    cfg.context = "race-test";
    resilience_run run;
    run.fault_rate = 0.1;
    run.trajectory = {{0.0, 0.5}, {1.0, 0.8}};
    const resilience_table table({run}, cfg.max_epochs, resilience_fingerprint(cfg), 1);
    const resilience_cache cache(dir);

    std::vector<std::thread> writers;
    for (int t = 0; t < 8; ++t) {
        writers.emplace_back([&] {
            for (int i = 0; i < 5; ++i) { cache.store(table, cfg); }
        });
    }
    for (std::thread& t : writers) { t.join(); }

    const std::optional<resilience_table> loaded = cache.load(cfg);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->to_json().dump(), table.to_json().dump());
    // Every temp file was renamed away — the directory holds exactly the
    // committed entry.
    std::size_t files = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        ++files;
        EXPECT_EQ(entry.path().filename().string().find(".tmp"), std::string::npos)
            << "temp litter: " << entry.path();
    }
    EXPECT_EQ(files, 1u);
    std::filesystem::remove_all(dir);
}

TEST(ResilienceCache, GcSweepsUniquifiedTmpLitter) {
    // Interrupted stores leave ".tmp.<pid>.<seq>"-suffixed files; gc must
    // recognize the infix, not just the legacy bare ".tmp" suffix.
    const std::string dir =
        (std::filesystem::path(::testing::TempDir()) / "reduce_tmp_litter_cache").string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    {
        std::ofstream out((std::filesystem::path(dir) / "step1-x.json.tmp.1234.7").string());
        out << "{";
    }
    const resilience_cache cache(dir);
    const resilience_cache::gc_report report = cache.gc();
    EXPECT_EQ(report.removed_stale, 1u);
    EXPECT_FALSE(
        std::filesystem::exists(std::filesystem::path(dir) / "step1-x.json.tmp.1234.7"));
    std::filesystem::remove_all(dir);
}

TEST(ResilienceCache, GcRemovesStaleKeepsCurrentAndEnforcesBudget) {
    const std::string dir =
        (std::filesystem::path(::testing::TempDir()) / "reduce_gc_cache").string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    const auto write_file = [&](const std::string& name, const std::string& text) {
        std::ofstream out((std::filesystem::path(dir) / name).string());
        out << text;
    };

    // A valid current-schema entry.
    resilience_run run;
    run.fault_rate = 0.1;
    run.trajectory = {{0.0, 0.5}, {1.0, 0.8}};
    const resilience_table table({run}, 1.0);
    write_file("step1-current.json", table.to_json().dump());
    // A pre-versioning (schema 1) entry, an unreadable one, interrupted-store
    // litter, and a non-cache file that must be left alone.
    write_file("step1-old.json", "{\"max_epochs\": 1, \"runs\": []}");
    write_file("step1-broken.json", "{not json");
    write_file("step1-partial.json.tmp", "{");
    write_file("unrelated.json", "{}");

    const resilience_cache cache(dir);
    const resilience_cache::gc_report report = cache.gc();
    EXPECT_EQ(report.scanned, 4u);
    EXPECT_EQ(report.removed_stale, 3u);
    EXPECT_EQ(report.removed_oversize, 0u);
    EXPECT_TRUE(std::filesystem::exists(std::filesystem::path(dir) / "step1-current.json"));
    EXPECT_TRUE(std::filesystem::exists(std::filesystem::path(dir) / "unrelated.json"));
    EXPECT_FALSE(std::filesystem::exists(std::filesystem::path(dir) / "step1-old.json"));
    EXPECT_FALSE(std::filesystem::exists(std::filesystem::path(dir) / "step1-broken.json"));
    EXPECT_FALSE(std::filesystem::exists(std::filesystem::path(dir) / "step1-partial.json.tmp"));

    // A 1-byte budget evicts even the surviving entry.
    resilience_cache::gc_options tight;
    tight.max_total_bytes = 1;
    const resilience_cache::gc_report evicted = cache.gc(tight);
    EXPECT_EQ(evicted.removed_oversize, 1u);
    EXPECT_FALSE(std::filesystem::exists(std::filesystem::path(dir) / "step1-current.json"));

    // Missing directory: empty report, no throw.
    std::filesystem::remove_all(dir);
    const resilience_cache::gc_report empty = resilience_cache(dir).gc();
    EXPECT_EQ(empty.scanned, 0u);
}

}  // namespace
}  // namespace reduce
