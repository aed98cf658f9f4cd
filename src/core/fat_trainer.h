// Fault-Aware Training (FAT) — Step 3 of the Reduce framework.
//
// Retrains masked models for an exact (possibly fractional) number of
// epochs, evaluating test accuracy at a grid of epoch checkpoints. The
// mask-aware optimizer keeps pruned weights at zero, so the network being
// trained is exactly the function the damaged chip computes.
//
// One episode: run_episode masks one model for one fault map and its
// timeline and trains it on one checkpoint grid, optionally stopping at a
// target. Every Step-1 cell, every Step-3 chip (the oracle included) and
// the timeline bench run through it; fault_aware_trainer::train underneath
// owns the stop list of checkpoints and events and the one rollback anchor.
//
// Threading: an episode is single-threaded, kernels included. run_episodes
// is the one driver that runs many at once, for Step-1 cells and Step-3
// chips alike; the distributed worker trains every lease on the same kind
// of per-worker clone (episode_worker).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "data/loader.h"
#include "fault/mask_builder.h"
#include "fault/scenario.h"
#include "nn/models.h"
#include "nn/optim.h"

namespace reduce {

/// Hyper-parameters of one retraining run.
struct fat_config {
    std::size_t batch_size = 64;
    double learning_rate = 0.05;
    double momentum = 0.9;
    double weight_decay = 0.0;
    double grad_clip = 0.0;        ///< 0 disables clipping
    std::uint64_t shuffle_seed = 99;
};

/// One point of a retraining trajectory.
struct training_point {
    double epochs = 0.0;         ///< epochs completed when evaluated
    double test_accuracy = 0.0;  ///< in [0, 1]
};

/// Outcome of a retraining run.
struct fat_result {
    std::vector<training_point> trajectory;  ///< includes the epoch-0 point
    double final_accuracy = 0.0;
    double epochs_run = 0.0;
    std::size_t steps_run = 0;
    double train_seconds = 0.0;
    /// Timeline accounting (all zero for event-free runs).
    std::size_t events_applied = 0;  ///< fault-timeline events fired mid-run
    std::size_t rollbacks = 0;       ///< recoveries to the last finite checkpoint
    std::size_t restarts = 0;        ///< restart-from-scratch resets at events
    /// Training diverged to non-finite state and the run stopped early
    /// (after exhausting any rollback budget). final_accuracy is reported
    /// as exactly 0.0 — loud and deterministic, never a propagated NaN.
    bool hit_nonfinite = false;
};

/// Mid-run fault-event hooks: how a fault timeline plugs into an episode.
///
/// The trainer owns WHEN (event epochs are merged into the checkpoint
/// sequence and fire at the same step boundaries on every run) and the
/// recovery discipline; the caller owns WHAT an event does via `on_event`,
/// which must rebuild the fault grid and re-attach masks in place
/// (fault_state_guard::swap_masks) — the trainer then re-zeroes optimizer
/// state under the new masks, takes an eval point, and continues.
struct train_event_hooks {
    /// Ascending event epochs, each > 0. Events at or beyond the epoch
    /// budget never fire. Index i of this list is passed to on_event.
    std::vector<double> event_epochs;
    /// Applies event i to the model's masks (and the caller's grid).
    std::function<void(std::size_t event_index)> on_event;
    recovery_mode mode = recovery_mode::recover;
    /// recover mode: rollbacks to the last finite checkpoint allowed
    /// before the run gives up (hit_nonfinite). Each rollback halves the
    /// learning rate so the deterministic retry takes a different — tamer —
    /// trajectory than the one that diverged.
    std::size_t rollback_budget = 2;
};

/// Builds the hooks of one episode's fault timeline: event i applies
/// timeline event i to `working` (the episode's own copy of its fault grid)
/// and swaps the guarded model's masks to match. The references must
/// outlive the hooks. An empty timeline yields hooks without events, which
/// every episode treats as no timeline.
train_event_hooks timeline_hooks(const fault_timeline& timeline, fault_grid& working,
                                 fault_state_guard& guard, const array_config& array);

/// Rows one evaluation forward pass covers: large enough to amortize
/// per-batch costs, bounded to keep activation memory flat on big test
/// sets. evaluate_model splits the test set this way, and every checkpoint
/// eval of an episode goes through it — splits never change results,
/// since eval-mode passes are row-local.
inline std::size_t eval_batch_rows(const fat_config& cfg) {
    return cfg.batch_size > 256 ? cfg.batch_size : 256;
}

/// Builds an epoch-checkpoint grid: `fine_step` spacing up to `fine_until`,
/// then `coarse_step` spacing up to `max_epochs` (inclusive). All harnesses
/// share this so trajectories are comparable.
std::vector<double> make_eval_grid(double max_epochs, double fine_until, double fine_step,
                                   double coarse_step);

/// First trajectory epoch value whose accuracy meets `target`; nullopt when
/// the run never reaches it (censored).
std::optional<double> epochs_to_reach(const std::vector<training_point>& trajectory,
                                      double target);

/// Accuracy at the largest checkpoint <= `epochs` (trajectory must start at
/// epoch 0).
double accuracy_at_epochs(const std::vector<training_point>& trajectory, double epochs);

/// Test-set accuracy of `model` as-is (eval mode, full test set, batches of
/// eval_batch_rows). The model is left in training mode.
double evaluate_model(sequential& model, const dataset& test_data, const fat_config& cfg);

/// The retraining engine: binds one model + datasets.
class fault_aware_trainer {
public:
    /// The trainer keeps references; all must outlive it.
    fault_aware_trainer(sequential& model, const dataset& train_data, const dataset& test_data,
                        fat_config cfg);

    /// Test-set accuracy of the model as-is (eval mode, full test set).
    double evaluate();

    /// Trains for `epoch_budget` epochs (0 allowed → just the epoch-0 eval),
    /// evaluating at every checkpoint of `eval_grid` that is <= budget and
    /// at the budget itself. A fresh optimizer and reshuffled loader are
    /// used per call, so runs are independent given the config seed.
    ///
    /// `epoch0_accuracy` injects a precomputed trajectory[0] value instead
    /// of running the epoch-0 evaluation (chip_tuner::tune's injected
    /// `accuracy_before`). evaluate() is pure for a fixed
    /// model state, so an injected value that was computed on the same
    /// masked weights (and batch-norm statistics) leaves the result
    /// byte-identical to the uninjected run while skipping one full pass
    /// over the test set.
    ///
    /// `hooks` (optional) drives fault-timeline events: event epochs join
    /// the checkpoint sequence, each firing records an eval point, and the
    /// recovery discipline (recover/rollback vs restart) follows
    /// hooks->mode. nullptr or an empty event list means no timeline.
    ///
    /// Divergence: a non-finite loss blocks that step's update, and any
    /// non-finite parameter at a stop counts too. With rollback budget left
    /// (recover mode) the run restores its last finite anchor in place —
    /// model, optimizer, loader position, step count, stop index and
    /// trajectory length — halves the learning rate and continues;
    /// otherwise it stops loudly (fat_result::hit_nonfinite, accuracy 0)
    /// instead of silently training on NaNs.
    ///
    /// `stop_at_accuracy` ends the run at the first recorded point (epoch
    /// 0, checkpoint or event stop) meeting it, with the model behind that
    /// point. Rollbacks never remove a recorded point, so this is the point
    /// epochs_to_reach finds on the full-budget trajectory.
    fat_result train(double epoch_budget, const std::vector<double>& eval_grid,
                     const std::optional<double>& epoch0_accuracy = std::nullopt,
                     const train_event_hooks* hooks = nullptr,
                     const std::optional<double>& stop_at_accuracy = std::nullopt);

    /// Convenience: train for the budget with a single final evaluation.
    fat_result train(double epoch_budget);

    const fat_config& config() const { return cfg_; }

    /// The model this trainer trains.
    sequential& model() { return model_; }

private:
    sequential& model_;
    const dataset& train_data_;
    const dataset& test_data_;
    fat_config cfg_;
};

/// One FAT episode: one fault map, its timeline, and how long to train.
struct episode {
    std::uint64_t seed = 0;      ///< reseeds the stochastic (dropout) layers
    fault_grid faults;           ///< working copy; timeline events mutate it
    fault_timeline timeline{};   ///< carries its scenario; empty → no events
    double budget = 0.0;         ///< epochs
    std::vector<double> grid{};  ///< checkpoints; may be empty
    std::optional<double> target{};  ///< stop_at_accuracy (the oracle)
    std::optional<double> epoch0_accuracy{};  ///< injected accuracy_before
};

/// What one episode returns.
struct episode_result {
    fat_result fat;
    mask_stats masks;  ///< of the episode's initial fault map
};

/// Sees the trained model at the end of an episode, before its restore.
using trained_model_observer = std::function<void(sequential& trained)>;

/// Runs `ep` on the trainer's model: reseed_stochastic_layers(ep.seed), a
/// fault_state_guard, attach_fault_masks(ep.faults), the timeline's hooks,
/// then train(ep.budget, ep.grid, …, ep.target). The model holds the
/// pretrained weights on entry and again on every exit path, a throw
/// included, so the result is a function of the episode alone.
episode_result run_episode(fault_aware_trainer& trainer, const model_snapshot& pretrained,
                           const array_config& array, episode ep,
                           const trained_model_observer& on_trained = nullptr);

/// What a worker clones its model from: the prototype, the snapshot every
/// episode starts from, the datasets and the trainer config. The references
/// are only read and must outlive every worker built from them.
struct episode_source {
    const sequential& prototype;
    const model_snapshot& pretrained;
    const dataset& train_data;
    const dataset& test_data;
    fat_config trainer_cfg;
};

/// One worker's private model: a deep clone of the prototype at the
/// pretrained weights, and the trainer bound to it. Every run_episode leaves
/// the clone at the pretrained snapshot, so one worker serves any number of
/// episodes — cells and chips alike — in any order.
class episode_worker {
public:
    explicit episode_worker(const episode_source& source);

    fault_aware_trainer& trainer() { return trainer_; }

private:
    std::unique_ptr<sequential> clone_;
    fault_aware_trainer trainer_;  ///< bound to *clone_
};

/// One unit of a run_episodes call: runs unit `index` on the worker's trainer.
using episode_unit = std::function<void(fault_aware_trainer& trainer, std::size_t index)>;

/// The episode driver behind Step 1 and Step 3: runs unit(trainer, i) once
/// for every i in [0, n) on resolve_thread_count(threads, n) workers, each
/// with its own episode_worker and thread-local workspace arena. Workers
/// claim one index at a time from a shared cursor, so which worker runs a
/// unit is timing-dependent; results must be a function of the index alone.
/// Once a unit throws, no worker claims another index, and the first
/// exception is re-thrown after every worker has returned. Returns the
/// worker count (0 when n is 0, which runs nothing).
std::size_t run_episodes(const episode_source& source, std::size_t n, std::size_t threads,
                         const episode_unit& unit);

}  // namespace reduce
