#include "core/fat_trainer.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>

#include "nn/loss.h"
#include "nn/metrics.h"
#include "nn/serialize.h"
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
/// boundary (loader.steps_for_epochs) at any K, thread count or placement.
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

/// The variant's hooks when they carry a live timeline, else nullptr.
const train_event_hooks* live_hooks(const fat_variant& v, double epoch_budget) {
    const bool live = v.hooks != nullptr && !v.hooks->event_epochs.empty() && epoch_budget > 0.0;
    return live ? v.hooks : nullptr;
}

/// Full resumable state of a variant's last stop where loss and weights
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

/// One variant's episode state.
struct variant_state {
    sequential* model = nullptr;
    const train_event_hooks* hooks = nullptr;  ///< null: no live timeline
    std::unique_ptr<sgd> opt;
    fat_result result;
    double lr = 0.0;
    bool can_rollback = false;
    rollback_point anchor;
    /// Restart baseline: the post-FAP masked pretrained state every event
    /// resets to (cumulative-epoch accounting — the loader keeps running).
    model_snapshot restart_base;
    optimizer_state fresh_opt;
};

/// Variants sharing one loader position: they draw the same batches and
/// meet the same stops in lockstep.
struct cohort {
    cohort(const dataset& train_data, const fat_config& cfg)
        : loader(train_data, cfg.batch_size, cfg.shuffle_seed) {}
    std::vector<variant_state*> members;
    data_loader loader;
    std::size_t steps_done = 0;
    std::size_t next_stop = 0;
};

/// Runs cohorts to the end of the stop list. A diverged variant with
/// rollback budget left comes back as a new one-variant cohort resumed
/// from its own anchor.
class lockstep_episode {
public:
    lockstep_episode(const dataset& train_data, const dataset& test_data,
                     const fat_config& cfg, std::vector<stop_point> stops)
        : train_data_(train_data), test_data_(test_data), cfg_(cfg), stops_(std::move(stops)) {}

    void run(std::unique_ptr<cohort> first) {
        queue_.push_back(std::move(first));
        while (!queue_.empty()) {
            std::unique_ptr<cohort> c = std::move(queue_.front());
            queue_.pop_front();
            run_cohort(*c);
        }
    }

    void take_anchor(variant_state& v, const cohort& c, std::size_t next_stop) const {
        v.anchor.model = snapshot_model(*v.model);
        v.anchor.opt = v.opt->save_state();
        v.anchor.loader = c.loader.save_state();
        v.anchor.steps_done = c.steps_done;
        v.anchor.next_stop = next_stop;
        v.anchor.traj_size = v.result.trajectory.size();
    }

private:
    static std::vector<sequential*> models_of(const cohort& c) {
        std::vector<sequential*> models;
        for (const variant_state* v : c.members) { models.push_back(v->model); }
        return models;
    }

    /// Takes member `idx` out of the cohort after it diverged with
    /// `steps_done` completed steps.
    void leave(cohort& c, std::size_t idx, std::size_t steps_done) {
        variant_state& v = *c.members[idx];
        c.members.erase(c.members.begin() + static_cast<std::ptrdiff_t>(idx));
        const double epoch = stops_[c.next_stop].epoch;
        if (v.can_rollback && v.result.rollbacks < v.hooks->rollback_budget) {
            ++v.result.rollbacks;
            v.lr *= 0.5;
            LOG_WARN << "fat: non-finite state before epoch " << epoch
                     << "; rolling back to the last finite checkpoint (retry "
                     << v.result.rollbacks << "/" << v.hooks->rollback_budget << " at lr "
                     << v.lr << ")";
            restore_model(*v.model, v.anchor.model);
            v.opt->restore_state(v.anchor.opt);
            v.opt->set_learning_rate(v.lr);
            // Continue under the CURRENT (post-event) masks: the anchor may
            // predate the strike, so re-clamp weights and momentum.
            apply_all_masks(v.opt->params());
            v.opt->mask_state();
            v.result.trajectory.resize(v.anchor.traj_size);
            auto replay = std::make_unique<cohort>(train_data_, cfg_);
            replay->loader.restore_state(v.anchor.loader);
            replay->steps_done = v.anchor.steps_done;
            replay->next_stop = v.anchor.next_stop;
            replay->members.push_back(&v);
            queue_.push_back(std::move(replay));
            return;
        }
        LOG_WARN << "fat: training diverged to non-finite state before epoch " << epoch
                 << " after " << steps_done << " steps; stopping early with accuracy 0";
        v.result.hit_nonfinite = true;
        v.result.steps_run = steps_done;
    }

    /// One step on the cohort's next batch: every member runs its own
    /// forward, loss and backward on it. A member whose loss is not finite
    /// skips backward, takes no update and leaves.
    void step(cohort& c) {
        const std::size_t k = c.members.size();
        const batch b = c.loader.next_batch();
        std::vector<bool> diverged(k, false);
        std::vector<sgd*> stepping;
        for (std::size_t g = 0; g < k; ++g) {
            variant_state& v = *c.members[g];
            const loss_result loss = cross_entropy_loss(v.model->forward(b.features), b.labels);
            if (!std::isfinite(loss.value)) {
                diverged[g] = true;
                continue;
            }
            v.opt->zero_grad();
            v.model->backward(loss.grad);
            if (cfg_.grad_clip > 0.0) { clip_grad_norm(v.opt->params(), cfg_.grad_clip); }
            stepping.push_back(v.opt.get());
        }
        // Independent optimizer states in one sweep. Inside the parallel
        // region each sgd's element loops gate off (should_fan_out), so
        // every update is the K = 1 chain at any --gemm-threads.
        if (stepping.size() > 1 && intra_op_threads() > 1 && !in_intra_op_region()) {
            parallel_for(stepping.size(), [&](std::size_t begin, std::size_t end) {
                for (std::size_t g = begin; g < end; ++g) { stepping[g]->step(); }
            });
        } else {
            for (sgd* opt : stepping) { opt->step(); }
        }
        for (std::size_t g = k; g > 0; --g) {
            if (diverged[g - 1]) { leave(c, g - 1, c.steps_done); }
        }
        ++c.steps_done;
    }

    void run_cohort(cohort& c) {
        while (c.next_stop < stops_.size() && !c.members.empty()) {
            const stop_point st = stops_[c.next_stop];
            const std::size_t target_steps = c.loader.steps_for_epochs(st.epoch);
            while (c.steps_done < target_steps && !c.members.empty()) { step(c); }
            // Non-finite weights persist under SGD (momentum and decay keep
            // them non-finite), so a stop scan catches any divergence the
            // loss check missed before a trajectory point is reported.
            for (std::size_t g = c.members.size(); g > 0; --g) {
                for (const parameter* p : c.members[g - 1]->opt->params()) {
                    const std::span<const float> values = p->value.data();
                    if (!std::all_of(values.begin(), values.end(),
                                     [](float v) { return std::isfinite(v); })) {
                        leave(c, g - 1, c.steps_done);
                        break;
                    }
                }
            }
            if (c.members.empty()) { break; }
            if (st.event >= 0) {
                for (variant_state* v : c.members) { fire_event(*v, st.event); }
            }
            // Label the point with the REQUESTED checkpoint, not the
            // step-quantized epoch count: queries (accuracy_at,
            // epochs_to_reach) are phrased on the checkpoint grid, and the
            // quantization always rounds the actual steps UP (ceil), so the
            // label understates the training done — the conservative
            // direction. Event stops record the post-event accuracy (the
            // eval point recovery continues from).
            const std::vector<double> accs = evaluate_variants(models_of(c), test_data_, cfg_);
            for (std::size_t g = 0; g < c.members.size(); ++g) {
                variant_state& v = *c.members[g];
                v.result.trajectory.push_back({st.epoch, accs[g]});
                if (v.can_rollback) { take_anchor(v, c, c.next_stop + 1); }
            }
            ++c.next_stop;
        }
        for (variant_state* v : c.members) { v->result.steps_run = c.steps_done; }
    }

    /// Applies timeline event `event` to one variant.
    void fire_event(variant_state& v, std::ptrdiff_t event) const {
        // The callback rebuilds the fault grid and masks in place (newly
        // masked weights are zeroed by the re-attach).
        v.hooks->on_event(static_cast<std::size_t>(event));
        ++v.result.events_applied;
        if (v.hooks->mode == recovery_mode::restart) {
            // Baseline: pretrained weights under the NEW mask, fresh
            // optimizer, original learning rate — epochs keep accumulating,
            // so benches can price the restart.
            restore_model(*v.model, v.restart_base);
            apply_all_masks(v.opt->params());
            v.opt->restore_state(v.fresh_opt);
            v.lr = cfg_.learning_rate;
            v.opt->set_learning_rate(v.lr);
            ++v.result.restarts;
        } else {
            // Recover-and-continue: a newly pruned weight loses its
            // momentum too, or the next step would push it off zero.
            v.opt->mask_state();
        }
    }

    const dataset& train_data_;
    const dataset& test_data_;
    const fat_config& cfg_;
    std::vector<stop_point> stops_;
    std::deque<std::unique_ptr<cohort>> queue_;
};

}  // namespace

train_event_hooks timeline_hooks(const scenario_config& scenario, const fault_timeline& timeline,
                                 fault_grid& working, fault_state_guard& guard,
                                 const array_config& array) {
    train_event_hooks hooks;
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

std::vector<double> evaluate_variants(const std::vector<sequential*>& models,
                                      const dataset& test_data, const fat_config& cfg) {
    const std::size_t k = models.size();
    for (sequential* m : models) { m->set_training(false); }
    const std::size_t rows_per_batch = eval_batch_rows(cfg);
    std::vector<std::size_t> correct(k, 0);
    std::vector<std::size_t> indices;
    std::size_t index = 0;
    while (index < test_data.size()) {
        const std::size_t count = std::min(rows_per_batch, test_data.size() - index);
        indices.resize(count);
        for (std::size_t i = 0; i < count; ++i) { indices[i] = index + i; }
        const batch b = gather_batch(test_data, indices);
        for (std::size_t g = 0; g < k; ++g) {
            correct[g] += correct_count(models[g]->forward(b.features), b.labels);
        }
        index += count;
    }
    for (sequential* m : models) { m->set_training(true); }
    std::vector<double> acc(k);
    for (std::size_t g = 0; g < k; ++g) {
        acc[g] = static_cast<double>(correct[g]) / static_cast<double>(test_data.size());
    }
    return acc;
}

std::vector<fat_result> train_variants(const std::vector<fat_variant>& variants,
                                       const dataset& train_data, const dataset& test_data,
                                       const fat_config& cfg, double epoch_budget,
                                       const std::vector<double>& eval_grid) {
    REDUCE_CHECK(!variants.empty(), "train_variants needs at least one variant");
    REDUCE_CHECK(epoch_budget >= 0.0, "epoch budget must be non-negative");
    stopwatch timer;
    const std::size_t k = variants.size();

    // One stop list for the whole episode: every variant's timeline must
    // share event epochs and recovery settings (on_event stays per variant).
    const train_event_hooks* schedule = live_hooks(variants[0], epoch_budget);
    for (const fat_variant& v : variants) {
        REDUCE_CHECK(v.model != nullptr, "train_variants got a null model");
        const train_event_hooks* h = live_hooks(v, epoch_budget);
        REDUCE_CHECK((h == nullptr) == (schedule == nullptr) &&
                         (h == nullptr || (h->event_epochs == schedule->event_epochs &&
                                           h->mode == schedule->mode &&
                                           h->rollback_budget == schedule->rollback_budget)),
                     "train_variants: every variant must share one event schedule");
    }
    lockstep_episode episode(train_data, test_data, cfg,
                             plan_stops(epoch_budget, eval_grid, schedule));

    std::vector<variant_state> states(k);
    std::vector<sequential*> unevaluated;
    for (std::size_t g = 0; g < k; ++g) {
        states[g].model = variants[g].model;
        states[g].hooks = live_hooks(variants[g], epoch_budget);
        if (!variants[g].epoch0_accuracy.has_value()) {
            unevaluated.push_back(variants[g].model);
        }
    }
    // Epoch-0 points: injected, or one evaluation pass over the rest.
    const std::vector<double> computed =
        unevaluated.empty() ? std::vector<double>{}
                            : evaluate_variants(unevaluated, test_data, cfg);
    for (std::size_t g = 0, next = 0; g < k; ++g) {
        const double acc = variants[g].epoch0_accuracy.has_value()
                               ? *variants[g].epoch0_accuracy
                               : computed[next++];
        states[g].result.trajectory.push_back({0.0, acc});
    }

    auto first = std::make_unique<cohort>(train_data, cfg);
    sgd::config opt_cfg;
    opt_cfg.learning_rate = cfg.learning_rate;
    opt_cfg.momentum = cfg.momentum;
    opt_cfg.weight_decay = cfg.weight_decay;
    for (variant_state& v : states) {
        v.opt = std::make_unique<sgd>(v.model->parameters(), opt_cfg);
        v.model->set_training(true);
        apply_all_masks(v.opt->params());
        v.lr = cfg.learning_rate;
        if (v.hooks != nullptr && v.hooks->mode == recovery_mode::restart) {
            v.restart_base = snapshot_model(*v.model);
            v.fresh_opt = v.opt->save_state();  // all zeros: just constructed
        }
        v.can_rollback = v.hooks != nullptr && v.hooks->mode == recovery_mode::recover &&
                         v.hooks->rollback_budget > 0;
        if (v.can_rollback) { episode.take_anchor(v, *first, 0); }
        first->members.push_back(&v);
    }
    const std::size_t steps_per_epoch = first->loader.steps_per_epoch();
    episode.run(std::move(first));

    std::vector<fat_result> results;
    results.reserve(k);
    for (variant_state& v : states) {
        fat_result& r = v.result;
        // A non-finite end reports exactly 0.0 — deterministic and
        // guaranteed to miss any accuracy constraint — never a NaN.
        r.final_accuracy = r.hit_nonfinite ? 0.0 : r.trajectory.back().test_accuracy;
        r.epochs_run =
            static_cast<double>(r.steps_run) / static_cast<double>(steps_per_epoch);
        r.train_seconds = timer.seconds();
        results.push_back(std::move(r));
    }
    return results;
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
    return evaluate_variants({&model_}, test_data_, cfg_).front();
}

fat_result fault_aware_trainer::train(double epoch_budget, const std::vector<double>& eval_grid,
                                      const std::optional<double>& epoch0_accuracy,
                                      const train_event_hooks* hooks) {
    return train_variants({fat_variant{&model_, epoch0_accuracy, hooks}}, train_data_,
                          test_data_, cfg_, epoch_budget, eval_grid)
        .front();
}

fat_result fault_aware_trainer::train(double epoch_budget) {
    return train(epoch_budget, {});
}

}  // namespace reduce
