// Step 1 of Reduce: resilience analysis.
//
// Fault-injection experiments over a grid of fault rates, each repeated R
// times with independent fault maps, each trained up to an epoch budget
// while recording the test-accuracy trajectory. The distilled artifact is a
// resilience_table answering two queries:
//   * accuracy_at(rate, epochs)      — the curves of Fig. 2a, and
//   * epochs_for(rate, target, stat) — the curves of Fig. 2b, with
//     min/mean/max over repeats (the paper recommends max: mean
//     under-trains, cf. the error bars of Fig. 2b).
//
// Step 1 is the single most expensive stage of the framework — the paper's
// whole point is amortizing it over every fabricated chip — so the sweep
// engine here is built for scale:
//   * every (rate, repeat) cell is an independent experiment with a seed
//     derived as mix_seed(cfg.seed, rate_index, repeat), so the table is
//     bit-identical for any thread count and any cell partition (caveat: like
//     the fleet executor, this assumes the model carries no non-parameter
//     state across runs — dropout RNG streams and batch-norm running
//     statistics are NOT restored between cells; all in-tree workloads are
//     free of both, see ROADMAP);
//   * cells fan out over a thread pool, each worker owning a deep clone of
//     the prototype model restored from the pretrained snapshot per cell;
//   * analyze_cells computes any cell subset, and resilience_table::merge_into
//     folds the partial tables back losslessly — how the distributed
//     coordinator splits Step 1 across machines;
//   * a config-fingerprint-keyed JSON cache (resilience_cache) lets benches
//     and pipelines reuse Step-1 artifacts instead of recomputing them.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "accel/array_config.h"
#include "core/fat_trainer.h"
#include "fault/models.h"
#include "nn/serialize.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/stats.h"

namespace reduce {

/// Version of the Step-1 artifact schema + producing code. Part of the
/// config fingerprint, so bumping it invalidates every cached table at
/// once — the knob to turn whenever a change (kernel numerics, trajectory
/// semantics, serialization layout) makes old artifacts incomparable.
/// History: 1 = PR 2 sweep engine; 2 = blocked GEMM backend + whole-batch
/// conv lowering (accumulation order, and thus float results, changed);
/// 3 = deterministic stochastic layers (per-cell dropout reseeding,
/// batch-norm statistic restore) — artifacts from dropout/batch-norm
/// models change, dropout/BN-free models are numerically unaffected.
inline constexpr int resilience_schema_version = 3;

/// One fault-injection + retraining experiment.
struct resilience_run {
    double fault_rate = 0.0;
    std::size_t repeat = 0;
    std::uint64_t map_seed = 0;
    double masked_weight_fraction = 0.0;  ///< network weights pruned by this map
    std::vector<training_point> trajectory;
};

/// Distilled resilience characteristics of (model, dataset, fault model).
class resilience_table {
public:
    /// Builds from raw runs; `max_epochs` is the training budget that
    /// censored runs were cut at. Runs are stored in canonical order —
    /// ascending (fault_rate, repeat) — so tables built from any cell
    /// partition or thread count serialize byte-identically. `fingerprint`
    /// names the sweep config that produced the runs and `grid_cells` the
    /// full grid size (rates × repeats) of that sweep — a partial table
    /// carries fewer runs than grid_cells; merge_into() uses both to reject
    /// mixing incompatible sweeps, complete() to gate on the whole grid.
    /// Hand-built tables leave them at ""/0, which disables those checks.
    resilience_table(std::vector<resilience_run> runs, double max_epochs,
                     std::string fingerprint = "", std::size_t grid_cells = 0);

    // Copyable and movable despite the atomic warn-once flag (copies and
    // moved-to tables warn afresh). Declared explicitly because the atomic
    // deletes the defaults — and a missing move would silently deep-copy
    // every trajectory on cache loads.
    resilience_table(const resilience_table& other);
    resilience_table& operator=(const resilience_table& other);
    resilience_table(resilience_table&& other) noexcept;
    resilience_table& operator=(resilience_table&& other) noexcept;

    /// Fault rates present in the grid (sorted ascending, unique).
    const std::vector<double>& fault_rates() const { return rates_; }

    /// Training budget (censoring point).
    double max_epochs() const { return max_epochs_; }

    /// Fingerprint of the producing sweep config ("" for hand-built tables).
    const std::string& fingerprint() const { return fingerprint_; }

    /// Cell count of the producing sweep's full grid (0 for hand-built
    /// tables). runs().size() < grid_cells() identifies a partial table.
    std::size_t grid_cells() const { return grid_cells_; }

    /// Number of repeats at a grid rate.
    std::size_t repeats_at(double fault_rate) const;

    /// Accuracy after `epochs` of FAT at a grid fault rate, reduced over
    /// repeats by `stat` (default mean — matches how Fig. 2a curves are
    /// read). Rate must be a grid point.
    double accuracy_at(double fault_rate, double epochs,
                       statistic stat = statistic::mean) const;

    /// Epoch counts that reached `target_accuracy` at the grid rate, one
    /// entry per repeat; censored repeats count as max_epochs. Returns the
    /// per-repeat sample (for error bars) plus the censored count.
    struct target_sample {
        std::vector<double> epochs;  ///< one per repeat
        std::size_t censored = 0;    ///< repeats that never reached target
        summary_stats stats() const;
    };
    target_sample epochs_to_target_at(double fault_rate, double target_accuracy) const;

    /// How epochs_for treats rates between grid points.
    enum class interpolation {
        linear,  ///< linear between the bracketing grid rates
        upper,   ///< value at the upper bracketing rate (conservative)
    };

    /// The Step-2 query: retraining amount for an arbitrary fault rate via
    /// interpolation of the chosen statistic between grid rates. Rates
    /// outside the grid are clamped to the nearest end — a LOG_WARN flags
    /// the extrapolation (once per table, so per-chip planning over a big
    /// fleet cannot flood stderr), since the clamped answer can
    /// under-estimate the retraining a beyond-grid chip needs. Returns
    /// nullopt when the target is unreachable (censored) at every relevant
    /// grid point. Thread-safe, as Step-2 planners query concurrently.
    std::optional<double> epochs_for(double fault_rate, double target_accuracy,
                                     statistic stat,
                                     interpolation mode = interpolation::linear) const;

    /// Raw runs in canonical order (benches re-plot trajectories directly).
    const std::vector<resilience_run>& runs() const { return runs_; }

    /// Fuses a partial table (analyze_cells over a cell subset of the SAME
    /// config) into an accumulator as it arrives — how the distributed
    /// coordinator folds worker results in. Validates matching max_epochs,
    /// fingerprint, and grid size, and that no (fault_rate, repeat) cell
    /// appears twice; gate on complete() for full coverage. The
    /// accumulator re-enters canonical order after every call, so once
    /// complete its to_json() is byte-identical to the single-shot sweep
    /// regardless of arrival order.
    static void merge_into(resilience_table& into, const resilience_table& part);

    /// True when this table covers its producing sweep's whole grid (always
    /// false for hand-built tables, which carry no grid size).
    bool complete() const { return grid_cells_ != 0 && runs_.size() == grid_cells_; }

    /// JSON round-trip for caching the (expensive) Step-1 artifact.
    /// from_json reads disk and wire bytes, so any malformed document —
    /// wrong types, non-finite numbers, a fault rate, weight fraction, or
    /// accuracy outside [0, 1], a trajectory that does not start at epoch
    /// 0 or goes back in time, overlapping cells, more runs than the grid
    /// — is rejected with io_error.
    json_value to_json() const;
    static resilience_table from_json(const json_value& value);

private:
    /// Throws when two runs cover the same (fault_rate, repeat) cell —
    /// shared by merge_into() and from_json().
    static void check_no_overlapping_cells(const std::vector<resilience_run>& runs);

    std::vector<resilience_run> runs_;
    std::vector<double> rates_;
    double max_epochs_;
    std::string fingerprint_;
    std::size_t grid_cells_;
    mutable std::atomic<bool> clamp_warned_{false};
};

/// Configuration of the resilience sweep — everything that determines the
/// *numbers* in the table. Execution knobs (threads) live in sweep_options
/// and never change results.
struct resilience_config {
    std::vector<double> fault_rates{0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5};
    std::size_t repeats = 5;
    double max_epochs = 10.0;
    std::vector<double> eval_grid;  ///< empty → make_eval_grid(max,1,0.05,0.5)
    random_fault_config fault_model{};
    std::uint64_t seed = 20230305;
    /// Fault-event timeline applied inside every cell's retraining episode:
    /// each cell derives its timeline as timeline_for_cell(scenario,
    /// rate_index, repeat) — a pure function of the scenario and the cell's
    /// grid coordinates, so distributed and local sweeps replay
    /// identical event sequences. Empty (the default) disables timelines
    /// and keeps the fingerprint — and thus every existing cache entry and
    /// journal — unchanged.
    scenario_config scenario{};
    /// Names EVERYTHING the config alone cannot see that shapes the sweep's
    /// numbers: model architecture, dataset, pretraining, trainer
    /// hyper-parameters, and accelerator geometry (`workload::context`
    /// provides this for the standard workloads). Part of the fingerprint,
    /// so tables from different setups never merge or collide in the cache
    /// even when every numeric knob here matches.
    std::string context;
};

/// Execution knobs of a sweep. Any thread count produces a bit-identical
/// table.
struct sweep_options {
    std::size_t threads = 1;      ///< worker threads; 0 → hardware concurrency
    std::size_t gemm_threads = 1;  ///< ignored; perfbench spells it; ROADMAP 1b deletes
    /// Ignored: every cell measures its epoch-0 accuracy inside its own
    /// episode. Kept only because perfbench still sets it; ROADMAP item 1b
    /// deletes it.
    std::size_t eval_group = 1;
};

/// One (rate, repeat) cell of the sweep grid with its deterministic seed.
/// A cell's outcome depends only on the cell itself — never on scheduling,
/// thread count, or the cell partition.
struct sweep_cell {
    std::size_t rate_index = 0;
    std::size_t repeat = 0;
    double fault_rate = 0.0;
    std::uint64_t map_seed = 0;  ///< mix_seed(cfg.seed, rate_index, repeat)
};

/// Enumerates the full grid in canonical order (rate-major, repeat-minor)
/// after validating the config (non-empty unique rates in [0, 1], repeats
/// >= 1, positive budget).
std::vector<sweep_cell> enumerate_sweep_cells(const resilience_config& cfg);

/// Stable hex fingerprint of everything that determines sweep results: the
/// rate grid, repeats, budget, resolved eval grid, fault model, seed, and
/// the workload context. Execution knobs (threads) are excluded.
std::string resilience_fingerprint(const resilience_config& cfg);

/// On-disk JSON cache of Step-1 artifacts — the paper's overhead
/// amortization made concrete: benches, examples, and services reuse a
/// sweep instead of recomputing it. Entries are keyed by
/// resilience_fingerprint(cfg) (set cfg.context so distinct workloads get
/// distinct keys). Only complete tables are cached.
class resilience_cache {
public:
    /// `dir` is created on first store.
    explicit resilience_cache(std::string dir);

    /// Cache file for a config: <dir>/step1-<fingerprint>.json.
    std::string path_for(const resilience_config& cfg) const;

    /// The cached table, or nullopt on miss. Unreadable or
    /// fingerprint-mismatched entries count as misses (reported via
    /// LOG_WARN, never fatal).
    std::optional<resilience_table> load(const resilience_config& cfg) const;

    /// Persists the table atomically (write-temp-then-rename).
    void store(const resilience_table& table, const resilience_config& cfg) const;

    /// Garbage collection policy for gc().
    struct gc_options {
        /// Size budget for the surviving entries; 0 → no size pruning
        /// (only stale entries are removed).
        std::uint64_t max_total_bytes = 0;
    };

    /// What gc() did.
    struct gc_report {
        std::size_t scanned = 0;          ///< step1 cache files examined
        std::size_t removed_stale = 0;    ///< old schema, unreadable, or tmp litter
        std::size_t removed_oversize = 0; ///< evicted oldest-first for the budget
        std::uint64_t bytes_freed = 0;
        std::uint64_t bytes_kept = 0;
    };

    /// Prunes the cache directory: drops entries whose schema_version is
    /// not current (or that fail to parse), sweeps stale .tmp litter from
    /// interrupted stores, then — when `max_total_bytes` is set — evicts
    /// surviving entries oldest-mtime-first until the rest fits. A missing
    /// directory is an empty cache, not an error.
    gc_report gc(const gc_options& opts) const;

    /// gc() with default options (stale-only pruning). Separate overload:
    /// a `= {}` default argument cannot name the nested struct before the
    /// enclosing class is complete.
    gc_report gc() const;

    const std::string& directory() const { return dir_; }

private:
    std::string dir_;
};

/// CLI convenience shared by the harnesses: when `--cache-gc` is present,
/// reads `--cache-dir` (required) and `--cache-gc-max-mb` (0 → stale-only)
/// and returns the resilience_cache::gc pass that logs a summary. Returns
/// an empty function when the flag is absent. Reading and running are
/// split so a harness can reject unknown options before it prunes.
std::function<void()> cache_gc_from_cli(const cli_args& args);

/// Runs Step 1: for each (rate, repeat) cell, restores the pre-trained
/// weights into a per-worker model clone, injects a fresh fault map,
/// attaches masks, retrains up to the budget, and records the trajectory.
/// The prototype model is only cloned, never mutated.
class resilience_analyzer {
public:
    /// References must outlive the analyzer. `pretrained` is the snapshot
    /// every run starts from.
    resilience_analyzer(const sequential& model, const model_snapshot& pretrained,
                        const dataset& train_data, const dataset& test_data,
                        const array_config& array, fat_config trainer_cfg);

    /// Executes the whole sweep: analyze_cells over enumerate_sweep_cells.
    /// Deterministic given cfg.seed: the resulting table is bit-identical
    /// for any opts.
    resilience_table analyze(const resilience_config& cfg, const sweep_options& opts = {});

    /// Executes an EXPLICIT cell subset of cfg's grid — the work-unit entry
    /// point of the distributed worker, which is leased arbitrary cell
    /// batches. Every cell must belong to cfg's grid with its canonical
    /// seed (validated; catches config drift that survives a fingerprint
    /// collision). Returns a partial table (grid_cells = the full grid
    /// size) that merge_into() folds losslessly with any disjoint sibling,
    /// byte-identical to the same cells computed by analyze().
    resilience_table analyze_cells(const resilience_config& cfg,
                                   const std::vector<sweep_cell>& cells,
                                   const sweep_options& opts = {});

    /// Cache-aware sweep: returns the cached table when `cache` holds one
    /// for cfg, otherwise runs analyze() and stores the result.
    resilience_table analyze_cached(const resilience_config& cfg, const sweep_options& opts,
                                    const resilience_cache& cache);

private:
    const sequential& model_;
    const model_snapshot& pretrained_;
    const dataset& train_data_;
    const dataset& test_data_;
    array_config array_;
    fat_config trainer_cfg_;
};

/// CLI convenience shared by the figure/example harnesses: analyze through
/// a resilience_cache rooted at `cache_dir`, or plainly when it is empty.
resilience_table run_resilience_sweep(resilience_analyzer& analyzer,
                                      const resilience_config& cfg,
                                      const sweep_options& opts,
                                      const std::string& cache_dir);

}  // namespace reduce
