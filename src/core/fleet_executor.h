// Parallel per-chip retraining over a fleet (Steps 2+3, executor side).
//
// The executor separates the *decision* (a retraining_policy allocating
// epochs per chip) from the *work* (tune_chip: one run_episode per chip —
// mask for the chip's faults, run FAT, report). The work runs on
// run_episodes (core/fat_trainer.h), the driver Step 1 shares: workers claim
// one chip at a time, each training on its own clone of the prototype at
// the pretrained snapshot, so chip i's outcome depends only on chip i and
// is identical at any thread count. Stochastic layers are reseeded per chip
// (mix_seed(chip.seed, layer)) and batch-norm running statistics are
// snapshot/restored by the fault_state_guard, so the bit-identical
// guarantee covers dropout and normalizing models too.
//
// Grouping counters: train_batch_chips changes no claim and no outcome.
// After a run, fleet_run_stats' grouping fields are derived from the plan
// alone, as the split of fleet-order blocks (train_batch_chips capped at a
// fair share of the workers) into same-allocation groups.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/fat_trainer.h"
#include "core/policy.h"
#include "core/resilience.h"
#include "fault/chip.h"
#include "nn/serialize.h"

namespace reduce {

/// Per-chip result of a retraining policy.
struct chip_outcome {
    std::size_t chip_id = 0;
    double nominal_fault_rate = 0.0;
    double effective_fault_rate = 0.0;
    double masked_weight_fraction = 0.0;
    double epochs_allocated = 0.0;
    double epochs_run = 0.0;
    double accuracy_before = 0.0;  ///< after FAP, before retraining
    double final_accuracy = 0.0;
    bool meets_constraint = false;
    bool selection_failed = false;  ///< table deemed the target unreachable
    /// Fault-timeline accounting (all zero when no scenario is active).
    std::size_t events_applied = 0;  ///< timeline events fired mid-retraining
    std::size_t rollbacks = 0;       ///< recoveries to the last finite checkpoint
    std::size_t restarts = 0;        ///< restart-from-scratch resets at events
    /// Retraining diverged to non-finite state and stopped early;
    /// final_accuracy is reported as exactly 0.0, never a propagated NaN.
    bool hit_nonfinite = false;
};

/// Fleet-level summary of a policy run (one panel of Fig. 3).
struct policy_outcome {
    std::string policy_name;
    double accuracy_constraint = 0.0;
    std::vector<chip_outcome> chips;

    /// Average retraining epochs per chip (x-axis of Fig. 3f).
    double mean_epochs() const;

    /// Total epochs across the fleet (the aggregate cost Reduce minimizes).
    double total_epochs() const;

    /// Fraction of chips with final accuracy >= constraint (y-axis of
    /// Fig. 3f), in [0, 1].
    double fraction_meeting() const;
};

/// Hook invoked after each chip is tuned — the "distribute the fault-aware
/// DNN to its chip" step. Receives the chip and the tuned weights. The
/// executor streams sinks as a fleet-order prefix (chip i sinks once chips
/// 0..i have finished), so the callback sequence is identical at any thread
/// count while snapshot memory stays bounded by worker skew. Called under
/// the executor's lock, possibly from a worker thread.
using model_sink = std::function<void(const chip&, const model_snapshot&)>;

/// Progress hook: (chips completed so far, fleet size, the outcome that just
/// finished). Invoked under a lock in completion order — safe to touch
/// shared state from the callback, but completion order is thread-timing
/// dependent; only the *set* of calls is deterministic.
using progress_sink =
    std::function<void(std::size_t completed, std::size_t total, const chip_outcome&)>;

/// One chip's run_episode on `trainer`, seeded by the chip, trained per
/// `alloc`, with its timeline taken from timeline_for_chip(scenario, c.id).
/// A train_to_target allocation (the oracle) stops at the first checkpoint
/// meeting `constraint`: it is charged that checkpoint, and its counters and
/// snapshot are those of the run up to it. `on_trained` sees the tuned model
/// before the episode restores the pretrained snapshot, which it does on
/// every exit path. `accuracy_before` injects a precomputed post-FAP
/// accuracy (see chip_tuner::tune). The fleet executor, chip_tuner and the
/// distributed worker all tune through this one function.
chip_outcome tune_chip(fault_aware_trainer& trainer, const model_snapshot& pretrained,
                       const array_config& array, const scenario_config& scenario,
                       const chip& c, const epoch_allocation& alloc, double constraint,
                       double effective_rate, const trained_model_observer& on_trained = nullptr,
                       std::optional<double> accuracy_before = std::nullopt);

/// tune_chip on a private episode_worker, with optional snapshot capture and
/// a timeline scenario. Concurrent tuners never share mutable state; the
/// prototype, datasets and snapshot are read-only, shared, and must outlive
/// the tuner.
class chip_tuner {
public:
    chip_tuner(const sequential& prototype, const model_snapshot& pretrained,
               const dataset& train_data, const dataset& test_data,
               const array_config& array, fat_config trainer_cfg);

    /// tune_chip on the tuner's clone, which is back in the clean pretrained
    /// state on return — also when training throws. `accuracy_before`
    /// injects a precomputed post-FAP accuracy; computed on the same
    /// pretrained weights and fault grid, it leaves the outcome
    /// byte-identical to evaluating it here. No src/ caller passes it any
    /// more: it stays because perfbench's traced drive feeds it from the
    /// multi-mask evaluator (ROADMAP item 1b deletes it).
    chip_outcome tune(const chip& c, const epoch_allocation& alloc, double constraint,
                      double effective_rate,
                      std::optional<double> accuracy_before = std::nullopt);

    /// tune() over each chip in order; `accuracy_before` is empty or holds
    /// one value per chip (kept for perfbench, like tune's parameter). With
    /// capture on, take_tuned(g) returns chip g's snapshot.
    std::vector<chip_outcome> tune_group(const std::vector<const chip*>& chips,
                                         const std::vector<const epoch_allocation*>& allocs,
                                         double constraint,
                                         const std::vector<double>& effective_rates,
                                         const std::vector<double>& accuracy_before);

    /// When enabled, tune captures each chip's tuned weights AND
    /// module state buffers (batch-norm running statistics) pre-restore so
    /// the executor can feed model sinks a fully deployable snapshot. Off by
    /// default — snapshots cost memory.
    void set_capture_tuned(bool capture) { capture_tuned_ = capture; }

    /// Moves the last tune()'s captured snapshot out of the tuner.
    model_snapshot take_tuned() { return take_tuned(0); }

    /// Moves chip g's captured snapshot of the last tune_group out
    /// (requires set_capture_tuned(true)).
    model_snapshot take_tuned(std::size_t g);

    /// Installs a fault-event timeline scenario: every later episode derives
    /// its chip's timeline as timeline_for_chip(scenario, c.id) — a pure
    /// function of the scenario and the chip id, so distributed workers and
    /// the local path replay identical event sequences — and trains with
    /// mid-run event hooks (events mutate a working COPY of the chip's
    /// fault grid; the fleet descriptor is never touched). An empty
    /// scenario (the default) disables timelines.
    void set_scenario(scenario_config scenario) { scenario_ = std::move(scenario); }

private:
    const model_snapshot& pretrained_;
    array_config array_;
    bool capture_tuned_ = false;
    episode_worker worker_;
    std::vector<model_snapshot> tuned_;
    scenario_config scenario_;
};

/// Executor knobs.
struct fleet_executor_config {
    /// Worker threads for the fan-out; 0 → hardware concurrency. The thread
    /// count never changes per-chip outcomes, only wall-clock time.
    std::size_t threads = 1;
    std::size_t gemm_threads = 1;  ///< ignored; perfbench spells it; ROADMAP 1b deletes
    /// Ignored: every chip measures its accuracy_before inside its own
    /// episode. Kept only because perfbench still sets it; ROADMAP item 1b
    /// deletes it.
    std::size_t eval_batch_chips = 1;
    /// Only shapes the grouping counters (--train-batch-chips; ROADMAP item 2
    /// deletes it). The counters split the fleet into blocks of this many
    /// chips, capped at an even fleet/worker split, and each block's
    /// same-allocation runs (epochs and train_to_target) into groups of at
    /// most this many; a chip isolated by its allocation is counted in
    /// fleet_run_stats::alloc_downgrades. Workers claim one chip at a time
    /// and every chip trains in its own episode, so this never changes
    /// outcomes.
    std::size_t train_batch_chips = 1;
    /// Fault-event timeline applied to every chip (per-chip event contents
    /// derive from timeline_for_chip(scenario, chip.id)).
    scenario_config scenario{};
};

/// Observability counters for one run(). The grouping fields describe how
/// the fleet's blocks split into same-allocation groups (train_batch_chips)
/// and why the rest stood alone; they are derived from the plan after the
/// run, never from how workers claimed chips.
struct fleet_run_stats {
    std::size_t grouped_train_groups = 0;  ///< same-allocation groups of K >= 2 chips
    std::size_t grouped_train_chips = 0;   ///< chips tuned inside those groups
    std::size_t serial_train_chips = 0;    ///< chips tuned as groups of one
    /// Chips that could not join a group because their allocation differs
    /// from every neighbour's in the claimed block.
    std::size_t alloc_downgrades = 0;
    /// Always 0: every chip trains in its own episode. Kept so existing
    /// readers of the struct still compile.
    std::size_t nonfinite_downgrades = 0;
    /// Always 0, kept like the field above.
    std::size_t scenario_downgrades = 0;
    /// Chips whose retraining ended hit_nonfinite (diverged after
    /// exhausting any rollback budget; outcome reports final_accuracy 0.0,
    /// never NaN).
    std::size_t serial_nonfinite_chips = 0;
    /// Fleet-wide timeline accounting, summed over chip outcomes.
    std::size_t timeline_events = 0;
    std::size_t timeline_rollbacks = 0;
    std::size_t timeline_restarts = 0;
};

/// Runs a retraining policy over a fleet: tune_chip per chip on run_episodes.
class fleet_executor {
public:
    /// References must outlive the executor; `pretrained` is the golden
    /// snapshot every chip's retraining starts from. The prototype model is
    /// only read (cloned and rate-estimated), never mutated.
    fleet_executor(sequential& model, const model_snapshot& pretrained,
                   const dataset& train_data, const dataset& test_data,
                   const array_config& array, fat_config trainer_cfg,
                   fleet_executor_config cfg = {});

    /// Step 1 convenience wrapper: runs the sweep on the executor's worker
    /// count (cfg_.threads). Results are bit-identical at any thread count.
    resilience_table analyze(const resilience_config& cfg);

    /// Steps 2+3: allocates epochs via the policy, tunes every chip, and
    /// aggregates. `run_name` overrides the reported policy name (empty →
    /// policy.name()). Outcomes are ordered by fleet position and identical
    /// at any thread count. If any chip's tuning throws, workers stop picking
    /// up new chips and the first exception is re-thrown to the caller.
    policy_outcome run(const retraining_policy& policy, const std::vector<chip>& fleet,
                       const std::string& run_name = "");

    /// Installs the tuned-model hook (pass nullptr to remove).
    void set_model_sink(model_sink sink) { sink_ = std::move(sink); }

    /// Installs the progress hook (pass nullptr to remove).
    void set_progress_sink(progress_sink sink) { progress_ = std::move(sink); }

    const fleet_executor_config& config() const { return cfg_; }

    /// Counters of the most recent run() (reset at each run's start, filled
    /// once it has finished).
    const fleet_run_stats& last_run_stats() const { return stats_; }

private:
    sequential& model_;
    const model_snapshot& pretrained_;
    const dataset& train_data_;
    const dataset& test_data_;
    array_config array_;
    fat_config trainer_cfg_;
    fleet_executor_config cfg_;
    model_sink sink_;
    progress_sink progress_;
    fleet_run_stats stats_;
};

}  // namespace reduce
