#include "core/fat_trainer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <span>

#include "nn/loss.h"
#include "nn/metrics.h"
#include "nn/serialize.h"
#include "tensor/workspace.h"
#include "util/error.h"
#include "util/log.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace reduce {

namespace {

/// A point the episode stops at: a checkpoint, an event, or both.
struct stop_point {
    double epoch = 0.0;
    std::ptrdiff_t event = -1;  ///< index into hooks->event_epochs, or -1
};

/// Checkpoints strictly increasing, <= budget, always ending at the budget,
/// with the event epochs merged in. An event fires at the SAME step
/// boundary (loader.steps_for_epochs) at any thread count or placement.
/// Events at or beyond the budget never fire; an event within 1e-9 of a
/// checkpoint shares its stop (fire, then one eval covers both).
std::vector<stop_point> plan_stops(double epoch_budget, const std::vector<double>& eval_grid,
                                   const train_event_hooks* hooks) {
    std::vector<double> checkpoints;
    for (const double e : eval_grid) {
        if (e > 0.0 && e < epoch_budget - 1e-9) { checkpoints.push_back(e); }
    }
    std::sort(checkpoints.begin(), checkpoints.end());
    checkpoints.erase(std::unique(checkpoints.begin(), checkpoints.end()), checkpoints.end());
    if (epoch_budget > 0.0) { checkpoints.push_back(epoch_budget); }

    std::vector<stop_point> stops;
    for (const double c : checkpoints) { stops.push_back({c, -1}); }
    if (hooks == nullptr) { return stops; }
    REDUCE_CHECK(static_cast<bool>(hooks->on_event),
                 "event hooks carry epochs but no on_event callback");
    for (std::size_t i = 0; i < hooks->event_epochs.size(); ++i) {
        const double e = hooks->event_epochs[i];
        REDUCE_CHECK(e > 0.0, "event epoch must be positive, got " << e);
        REDUCE_CHECK(i == 0 || e > hooks->event_epochs[i - 1],
                     "event epochs must be strictly ascending");
        if (e >= epoch_budget - 1e-9) { break; }
        bool merged = false;
        for (stop_point& st : stops) {
            if (st.event < 0 && std::abs(st.epoch - e) <= 1e-9) {
                st.event = static_cast<std::ptrdiff_t>(i);
                merged = true;
                break;
            }
        }
        if (!merged) { stops.push_back({e, static_cast<std::ptrdiff_t>(i)}); }
    }
    std::sort(stops.begin(), stops.end(),
              [](const stop_point& a, const stop_point& b) { return a.epoch < b.epoch; });
    return stops;
}

/// Full resumable state of the episode's last stop where loss and weights
/// were finite. One anchor suffices: ReCycle rolls back to the LAST finite
/// checkpoint, never further.
struct rollback_point {
    model_snapshot model;       ///< params + state buffers (BN statistics)
    optimizer_state opt;
    data_loader::state loader;
    std::size_t steps_done = 0;
    std::size_t next_stop = 0;  ///< stop index to resume from
    std::size_t traj_size = 0;  ///< trajectory length to truncate back to
};

/// True when every parameter value is finite.
bool all_finite(const std::vector<parameter*>& params) {
    for (const parameter* p : params) {
        const std::span<const float> values = p->value.data();
        if (!std::all_of(values.begin(), values.end(),
                         [](float v) { return std::isfinite(v); })) {
            return false;
        }
    }
    return true;
}

}  // namespace

train_event_hooks timeline_hooks(const fault_timeline& timeline, fault_grid& working,
                                 fault_state_guard& guard, const array_config& array) {
    train_event_hooks hooks;
    const scenario_config& scenario = timeline.scenario;
    if (scenario.empty()) { return hooks; }
    hooks.event_epochs.reserve(scenario.events.size());
    for (const fault_event& ev : scenario.events) { hooks.event_epochs.push_back(ev.epoch); }
    hooks.mode = scenario.mode;
    hooks.rollback_budget = scenario.rollback_budget;
    hooks.on_event = [&timeline, &working, &guard, &array](std::size_t event_index) {
        apply_fault_event(working, timeline, event_index);
        guard.swap_masks(array, working);
    };
    return hooks;
}

double evaluate_model(sequential& model, const dataset& test_data, const fat_config& cfg) {
    model.set_training(false);
    const std::size_t rows_per_batch = eval_batch_rows(cfg);
    std::size_t correct = 0;
    std::vector<std::size_t> indices;
    std::size_t index = 0;
    while (index < test_data.size()) {
        const std::size_t count = std::min(rows_per_batch, test_data.size() - index);
        indices.resize(count);
        for (std::size_t i = 0; i < count; ++i) { indices[i] = index + i; }
        const batch b = gather_batch(test_data, indices);
        correct += correct_count(model.forward(b.features), b.labels);
        index += count;
    }
    model.set_training(true);
    return static_cast<double>(correct) / static_cast<double>(test_data.size());
}

std::vector<double> make_eval_grid(double max_epochs, double fine_until, double fine_step,
                                   double coarse_step) {
    REDUCE_CHECK(max_epochs > 0.0, "eval grid needs positive max_epochs");
    REDUCE_CHECK(fine_step > 0.0 && coarse_step > 0.0, "eval grid steps must be positive");
    REDUCE_CHECK(fine_until >= 0.0, "fine_until must be non-negative");
    std::vector<double> grid;
    const double eps = 1e-9;
    // Every point is an integer multiple of its step — ONE rounded product
    // per point instead of a growing addition chain, so awkward steps like
    // 0.1 yield 0.3 rather than 0.30000000000000004. Checkpoint values then
    // compare exactly across trajectories, cached-table fingerprints, and
    // training episodes, which all phrase queries on this grid.
    const double fine_limit = std::min(fine_until, max_epochs);
    for (std::size_t i = 1;; ++i) {
        const double e = static_cast<double>(i) * fine_step;
        if (e > fine_limit + eps) { break; }
        grid.push_back(e);
    }
    const double coarse_base = grid.empty() ? 0.0 : grid.back();
    for (std::size_t j = 1;; ++j) {
        const double c = coarse_base + static_cast<double>(j) * coarse_step;
        if (c > max_epochs + eps) { break; }
        grid.push_back(c);
    }
    if (grid.empty() || grid.back() < max_epochs - eps) { grid.push_back(max_epochs); }
    return grid;
}

std::optional<double> epochs_to_reach(const std::vector<training_point>& trajectory,
                                      double target) {
    for (const training_point& point : trajectory) {
        if (point.test_accuracy >= target) { return point.epochs; }
    }
    return std::nullopt;
}

double accuracy_at_epochs(const std::vector<training_point>& trajectory, double epochs) {
    REDUCE_CHECK(!trajectory.empty(), "empty trajectory");
    REDUCE_CHECK(trajectory.front().epochs == 0.0, "trajectory must start at epoch 0");
    double acc = trajectory.front().test_accuracy;
    for (const training_point& point : trajectory) {
        if (point.epochs <= epochs + 1e-9) {
            acc = point.test_accuracy;
        } else {
            break;
        }
    }
    return acc;
}

fault_aware_trainer::fault_aware_trainer(sequential& model, const dataset& train_data,
                                         const dataset& test_data, fat_config cfg)
    : model_(model), train_data_(train_data), test_data_(test_data), cfg_(cfg) {
    train_data_.validate();
    test_data_.validate();
    REDUCE_CHECK(cfg_.batch_size > 0, "batch size must be positive");
    REDUCE_CHECK(cfg_.learning_rate > 0.0, "learning rate must be positive");
}

double fault_aware_trainer::evaluate() {
    return evaluate_model(model_, test_data_, cfg_);
}

fat_result fault_aware_trainer::train(double epoch_budget, const std::vector<double>& eval_grid,
                                      const std::optional<double>& epoch0_accuracy,
                                      const train_event_hooks* hooks,
                                      const std::optional<double>& stop_at_accuracy) {
    REDUCE_CHECK(epoch_budget >= 0.0, "epoch budget must be non-negative");
    stopwatch timer;
    // Hooks without events (or a zero budget) mean no timeline.
    if (hooks != nullptr && (hooks->event_epochs.empty() || epoch_budget <= 0.0)) {
        hooks = nullptr;
    }
    const std::vector<stop_point> stops = plan_stops(epoch_budget, eval_grid, hooks);

    fat_result result;
    result.trajectory.push_back({0.0, epoch0_accuracy.has_value() ? *epoch0_accuracy : evaluate()});
    const auto met_target = [&] {
        return stop_at_accuracy.has_value() &&
               result.trajectory.back().test_accuracy >= *stop_at_accuracy;
    };

    data_loader loader(train_data_, cfg_.batch_size, cfg_.shuffle_seed);
    sgd opt(model_.parameters(), {.learning_rate = cfg_.learning_rate,
                                  .momentum = cfg_.momentum,
                                  .weight_decay = cfg_.weight_decay});
    model_.set_training(true);
    apply_all_masks(opt.params());
    double lr = cfg_.learning_rate;
    // Restart baseline: the post-FAP masked pretrained state every event
    // resets to (cumulative-epoch accounting — the loader keeps running).
    model_snapshot restart_base;
    optimizer_state fresh_opt;
    if (hooks != nullptr && hooks->mode == recovery_mode::restart) {
        restart_base = snapshot_model(model_);
        fresh_opt = opt.save_state();  // all zeros: just constructed
    }
    const bool can_rollback = hooks != nullptr && hooks->mode == recovery_mode::recover &&
                              hooks->rollback_budget > 0;
    std::size_t steps_done = 0;
    std::size_t next_stop = 0;
    rollback_point anchor;
    const auto take_anchor = [&] {
        anchor.model = snapshot_model(model_);
        anchor.opt = opt.save_state();
        anchor.loader = loader.save_state();
        anchor.steps_done = steps_done;
        anchor.next_stop = next_stop;
        anchor.traj_size = result.trajectory.size();
    };
    if (can_rollback) { take_anchor(); }

    // Handles a divergence before stop `next_stop`: rolls back to the
    // anchor in place and returns true, or marks the run non-finite and
    // returns false once the rollback budget is spent.
    const auto roll_back = [&]() -> bool {
        const double epoch = stops[next_stop].epoch;
        if (can_rollback && result.rollbacks < hooks->rollback_budget) {
            ++result.rollbacks;
            lr *= 0.5;
            LOG_WARN << "fat: non-finite state before epoch " << epoch
                     << "; rolling back to the last finite checkpoint (retry "
                     << result.rollbacks << "/" << hooks->rollback_budget << " at lr " << lr
                     << ")";
            restore_model(model_, anchor.model);
            opt.restore_state(anchor.opt);
            opt.set_learning_rate(lr);
            // Continue under the CURRENT (post-event) masks: the anchor may
            // predate the strike, so re-clamp weights and momentum.
            apply_all_masks(opt.params());
            opt.mask_state();
            loader.restore_state(anchor.loader);
            steps_done = anchor.steps_done;
            next_stop = anchor.next_stop;
            result.trajectory.resize(anchor.traj_size);
            return true;
        }
        LOG_WARN << "fat: training diverged to non-finite state before epoch " << epoch
                 << " after " << steps_done << " steps; stopping early with accuracy 0";
        result.hit_nonfinite = true;
        return false;
    };

    // One step on the next batch; false when the loss is not finite (the
    // step then takes no update).
    const auto step = [&]() -> bool {
        const batch b = loader.next_batch();
        const loss_result loss = cross_entropy_loss(model_.forward(b.features), b.labels);
        if (!std::isfinite(loss.value)) { return false; }
        opt.zero_grad();
        // Parameter gradients only: the first layer's input gradient is
        // never read, so it is never formed.
        model_.backward_params(loss.grad);
        if (cfg_.grad_clip > 0.0) { clip_grad_norm(opt.params(), cfg_.grad_clip); }
        opt.step();
        ++steps_done;
        return true;
    };

    while (next_stop < stops.size() && !met_target()) {
        const stop_point st = stops[next_stop];
        const std::size_t target_steps = loader.steps_for_epochs(st.epoch);
        bool finite = true;
        while (finite && steps_done < target_steps) { finite = step(); }
        // Non-finite weights persist under SGD (momentum and decay keep
        // them non-finite), so a stop scan catches any divergence the loss
        // check missed before a trajectory point is reported.
        if (finite) { finite = all_finite(opt.params()); }
        if (!finite) {
            if (roll_back()) { continue; }
            break;
        }
        if (st.event >= 0) {
            // The callback rebuilds the fault grid and masks in place (newly
            // masked weights are zeroed by the re-attach).
            hooks->on_event(static_cast<std::size_t>(st.event));
            ++result.events_applied;
            if (hooks->mode == recovery_mode::restart) {
                // Baseline: pretrained weights under the NEW mask, fresh
                // optimizer, original learning rate — epochs keep
                // accumulating, so benches can price the restart.
                restore_model(model_, restart_base);
                apply_all_masks(opt.params());
                opt.restore_state(fresh_opt);
                lr = cfg_.learning_rate;
                opt.set_learning_rate(lr);
                ++result.restarts;
            } else {
                // Recover-and-continue: a newly pruned weight loses its
                // momentum too, or the next step would push it off zero.
                opt.mask_state();
            }
        }
        // Label the point with the REQUESTED checkpoint, not the
        // step-quantized epoch count: queries (accuracy_at, epochs_to_reach)
        // are phrased on the checkpoint grid, and the quantization always
        // rounds the actual steps UP (ceil), so the label understates the
        // training done — the conservative direction. Event stops record
        // the post-event accuracy (the eval point recovery continues from).
        result.trajectory.push_back({st.epoch, evaluate()});
        ++next_stop;
        if (can_rollback) { take_anchor(); }
    }

    result.steps_run = steps_done;
    // A non-finite end reports exactly 0.0 — deterministic and guaranteed
    // to miss any accuracy constraint — never a NaN.
    result.final_accuracy = result.hit_nonfinite ? 0.0 : result.trajectory.back().test_accuracy;
    result.epochs_run =
        static_cast<double>(result.steps_run) / static_cast<double>(loader.steps_per_epoch());
    result.train_seconds = timer.seconds();
    return result;
}

fat_result fault_aware_trainer::train(double epoch_budget) {
    return train(epoch_budget, {});
}

episode_result run_episode(fault_aware_trainer& trainer, const model_snapshot& pretrained,
                           const array_config& array, episode ep,
                           const trained_model_observer& on_trained) {
    sequential& model = trainer.model();
    reseed_stochastic_layers(model, ep.seed);
    // Restores masks, weights and batch-norm statistics on every exit path.
    fault_state_guard guard(model, pretrained);
    episode_result out;
    out.masks = attach_fault_masks(model, array, ep.faults);
    const train_event_hooks hooks = timeline_hooks(ep.timeline, ep.faults, guard, array);
    out.fat = trainer.train(ep.budget, ep.grid, ep.epoch0_accuracy, &hooks, ep.target);
    if (on_trained) { on_trained(model); }
    return out;
}

episode_worker::episode_worker(const episode_source& source)
    : clone_(clone_model(source.prototype)),
      trainer_(*clone_, source.train_data, source.test_data, source.trainer_cfg) {
    // One restore covers the first episode; each episode's guard then
    // leaves the clone at the pretrained snapshot.
    restore_parameters(clone_->parameters(), source.pretrained);
}

std::size_t run_episodes(const episode_source& source, std::size_t n, std::size_t threads,
                         const episode_unit& unit) {
    if (n == 0) { return 0; }
    const std::size_t workers = resolve_thread_count(threads, n);
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    run_workers(workers, [&] {
        episode_worker worker(source);
        // The worker's episodes draw conv staging and GEMM buffers from this
        // thread's arena: the first unit warms it, later units reuse it.
        const workspace& arena = workspace::local();
        // A failed unit voids the whole call, so nobody starts another.
        while (!failed.load(std::memory_order_relaxed)) {
            const std::size_t i = next.fetch_add(1);
            if (i >= n) { break; }
            try {
                unit(worker.trainer(), i);
            } catch (...) {
                failed.store(true, std::memory_order_relaxed);
                throw;
            }
        }
        LOG_DEBUG << "episode worker done; arena high-water "
                  << arena.peak_floats() * sizeof(float) << " bytes across "
                  << arena.pooled_bytes() << " pooled";
    });
    return workers;
}

}  // namespace reduce
