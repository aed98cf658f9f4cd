#include "core/fleet_executor.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "core/multi_mask_eval.h"
#include "fault/mask_builder.h"
#include "tensor/workspace.h"
#include "util/error.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace reduce {

double policy_outcome::mean_epochs() const {
    if (chips.empty()) { return 0.0; }
    return total_epochs() / static_cast<double>(chips.size());
}

double policy_outcome::total_epochs() const {
    double total = 0.0;
    for (const chip_outcome& c : chips) { total += c.epochs_run; }
    return total;
}

double policy_outcome::fraction_meeting() const {
    if (chips.empty()) { return 0.0; }
    std::size_t meeting = 0;
    for (const chip_outcome& c : chips) {
        if (c.meets_constraint) { ++meeting; }
    }
    return static_cast<double>(meeting) / static_cast<double>(chips.size());
}

chip_tuner::chip_tuner(const sequential& prototype, const model_snapshot& pretrained,
                       const dataset& train_data, const dataset& test_data,
                       const array_config& array, fat_config trainer_cfg)
    : prototype_(prototype),
      pretrained_(pretrained),
      train_data_(train_data),
      test_data_(test_data),
      array_(array),
      trainer_cfg_(trainer_cfg) {
    train_data_.validate();
    test_data_.validate();
    REDUCE_CHECK(trainer_cfg_.batch_size > 0, "batch size must be positive");
    REDUCE_CHECK(trainer_cfg_.learning_rate > 0.0, "learning rate must be positive");
    ensure_clones(1);
}

void chip_tuner::ensure_clones(std::size_t k) {
    while (clones_.size() < k) { clones_.push_back(clone_model(prototype_)); }
}

chip_outcome chip_tuner::tune(const chip& c, const epoch_allocation& alloc,
                              double constraint, double effective_rate,
                              std::optional<double> accuracy_before) {
    std::vector<double> before;
    if (accuracy_before.has_value()) { before.push_back(*accuracy_before); }
    return tune_group({&c}, {&alloc}, constraint, {effective_rate}, before).front();
}

std::vector<chip_outcome> chip_tuner::tune_group(
    const std::vector<const chip*>& chips, const std::vector<const epoch_allocation*>& allocs,
    double constraint, const std::vector<double>& effective_rates,
    const std::vector<double>& accuracy_before) {
    const std::size_t k = chips.size();
    REDUCE_CHECK(k > 0, "tune_group over an empty chip group");
    REDUCE_CHECK(allocs.size() == k && effective_rates.size() == k,
                 "tune_group: " << k << " chips, " << allocs.size() << " allocations, "
                                << effective_rates.size() << " rates");
    REDUCE_CHECK(accuracy_before.empty() || accuracy_before.size() == k,
                 "tune_group: accuracy_before must be empty or one value per chip");
    // One shared batch schedule means one training plan: anything else
    // reaching this point is a grouping bug — fail loudly rather than train
    // a chip on the wrong plan.
    for (std::size_t g = 1; g < k; ++g) {
        REDUCE_CHECK(allocs[g]->epochs == allocs[0]->epochs &&
                         allocs[g]->train_to_target == allocs[0]->train_to_target,
                     "tune_group: chip " << chips[g]->id << " allocation ("
                                         << allocs[g]->epochs << " epochs, to_target="
                                         << allocs[g]->train_to_target
                                         << ") differs from the group's ("
                                         << allocs[0]->epochs << ", to_target="
                                         << allocs[0]->train_to_target
                                         << ") — group only same-allocation chips");
    }
    const epoch_allocation& alloc = *allocs[0];
    ensure_clones(k);
    tuned_.clear();
    if (capture_tuned_) { tuned_.resize(k); }

    // Per-chip episode setup. The guards clear masks, re-restore the
    // weights, and restore state buffers (batch-norm running statistics) on
    // every exit path, so a throwing episode cannot leave a clone corrupted.
    // Timeline events mutate each chip's working COPY of its grid; the
    // fleet's descriptors stay pristine. The timeline seed is a pure
    // function of (scenario.seed, chip id), so any worker on any machine
    // replays the same event contents for a chip.
    std::vector<std::unique_ptr<fault_state_guard>> guards;
    guards.reserve(k);
    std::vector<fault_grid> working;
    working.reserve(k);
    std::vector<fault_timeline> timelines;
    timelines.reserve(k);
    std::vector<train_event_hooks> hooks;
    hooks.reserve(k);
    std::vector<chip_outcome> outcomes(k);
    for (std::size_t g = 0; g < k; ++g) {
        sequential& clone = *clones_[g];
        restore_parameters(clone.parameters(), pretrained_);
        reseed_stochastic_layers(clone, chips[g]->seed);
        guards.push_back(std::make_unique<fault_state_guard>(clone, pretrained_));
        working.push_back(chips[g]->faults);
        const mask_stats stats = attach_fault_masks(clone, array_, working[g]);
        timelines.push_back(timeline_for_chip(scenario_, chips[g]->id));
        hooks.push_back(
            timeline_hooks(scenario_, timelines[g], working[g], *guards[g], array_));

        chip_outcome& out = outcomes[g];
        out.chip_id = chips[g]->id;
        out.nominal_fault_rate = chips[g]->nominal_fault_rate;
        out.effective_fault_rate = effective_rates[g];
        out.masked_weight_fraction = stats.masked_fraction();
        out.epochs_allocated = alloc.epochs;
        out.selection_failed = allocs[g]->selection_failed;
    }

    // Post-FAP accuracy: injected, or one evaluate_variants pass here.
    // Either way the value doubles as the episode's epoch-0 trajectory
    // point.
    std::vector<double> before = accuracy_before;
    if (before.empty()) {
        std::vector<sequential*> models(k);
        for (std::size_t g = 0; g < k; ++g) { models[g] = clones_[g].get(); }
        before = evaluate_variants(models, test_data_, trainer_cfg_);
    }
    std::vector<fat_variant> variants(k);
    for (std::size_t g = 0; g < k; ++g) {
        outcomes[g].accuracy_before = before[g];
        variants[g] = fat_variant{clones_[g].get(), before[g], &hooks[g]};
    }

    // Oracle accounting runs the budget on the shared checkpoint grid and
    // charges only up to the first checkpoint that meets the target.
    const bool to_target = alloc.train_to_target && alloc.epochs > 0.0;
    const std::vector<double> grid =
        to_target ? make_eval_grid(alloc.epochs, 1.0, 0.05, 0.5) : std::vector<double>{};
    const std::vector<fat_result> results =
        train_variants(variants, train_data_, test_data_, trainer_cfg_, alloc.epochs, grid);

    for (std::size_t g = 0; g < k; ++g) {
        const fat_result& result = results[g];
        chip_outcome& out = outcomes[g];
        out.events_applied = result.events_applied;
        out.rollbacks = result.rollbacks;
        out.restarts = result.restarts;
        out.hit_nonfinite = result.hit_nonfinite;
        out.epochs_run = result.epochs_run;
        out.final_accuracy = result.final_accuracy;
        const std::optional<double> reached =
            to_target ? epochs_to_reach(result.trajectory, constraint) : std::nullopt;
        if (reached.has_value()) {
            out.epochs_run = *reached;
            out.final_accuracy = accuracy_at_epochs(result.trajectory, *reached);
            // The charge stops at *reached: a divergence past that point is
            // outside the charged (and replayed) run, so the outcome is the
            // finite prefix, not the non-finite tail.
            out.hit_nonfinite = false;
            if (capture_tuned_ && *reached < result.epochs_run) {
                // The clone holds the full-budget weights; re-train it alone
                // to the charged checkpoint so the distributed snapshot
                // matches the reported accuracy (training is deterministic
                // per config, so this replays the exact prefix of the budget
                // run — dropout included, thanks to the re-reseed).
                sequential& clone = *clones_[g];
                restore_parameters(clone.parameters(), pretrained_);
                reseed_stochastic_layers(clone, chips[g]->seed);
                if (!scenario_.empty()) {
                    // The replay starts from the chip's ORIGINAL grid: the
                    // timeline re-fires its events from the same step
                    // boundaries, so the prefix is exact.
                    working[g] = chips[g]->faults;
                    guards[g]->swap_masks(array_, working[g]);
                }
                fault_aware_trainer trainer(clone, train_data_, test_data_, trainer_cfg_);
                (void)trainer.train(*reached, {}, before[g], &hooks[g]);
            }
        }
        out.meets_constraint = out.final_accuracy >= constraint;
        // Full deployable capture: parameters AND state buffers, taken
        // before the guard's restore — a sink deploying a tuned BN snapshot
        // must evaluate with the statistics behind the reported accuracy.
        if (capture_tuned_) { tuned_[g] = snapshot_model(*clones_[g]); }
    }
    return outcomes;
}

model_snapshot chip_tuner::take_tuned(std::size_t g) {
    REDUCE_CHECK(g < tuned_.size(),
                 "take_tuned(" << g << ") but only " << tuned_.size()
                               << " captured snapshots (set_capture_tuned before tuning)");
    return std::move(tuned_[g]);
}

fleet_executor::fleet_executor(sequential& model, const model_snapshot& pretrained,
                               const dataset& train_data, const dataset& test_data,
                               const array_config& array, fat_config trainer_cfg,
                               fleet_executor_config cfg)
    : model_(model),
      pretrained_(pretrained),
      train_data_(train_data),
      test_data_(test_data),
      array_(array),
      trainer_cfg_(trainer_cfg),
      cfg_(cfg) {}

resilience_table fleet_executor::analyze(const resilience_config& cfg) {
    sweep_options opts;
    opts.threads = cfg_.threads;
    opts.gemm_threads = cfg_.gemm_threads;
    opts.eval_group = cfg_.eval_batch_chips;
    return analyze(cfg, opts);
}

resilience_table fleet_executor::analyze(const resilience_config& cfg,
                                         const sweep_options& opts) {
    resilience_analyzer analyzer(model_, pretrained_, train_data_, test_data_, array_,
                                 trainer_cfg_);
    return analyzer.analyze(cfg, opts);
}

policy_outcome fleet_executor::run(const retraining_policy& policy,
                                   const std::vector<chip>& fleet,
                                   const std::string& run_name) {
    REDUCE_CHECK(!fleet.empty(), "fleet executor run over an empty fleet");
    const double constraint = policy.accuracy_target();
    REDUCE_CHECK(constraint >= 0.0 && constraint <= 1.0,
                 "accuracy constraint must be a fraction in [0, 1], got " << constraint);

    // Per-chip views. Rate estimation only reads layer geometry — cheap
    // enough to stay serial, which keeps view order trivially deterministic.
    const resilience_table* table = policy.table();
    std::vector<chip_view> views;
    views.reserve(fleet.size());
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        chip_view view;
        view.index = i;
        view.device = &fleet[i];
        view.effective_fault_rate =
            effective_fault_rate(model_, array_, fleet[i].faults, policy.rate_kind());
        view.table = table;
        view.epoch_budget = table != nullptr ? table->max_epochs() : 0.0;
        views.push_back(view);
    }

    const std::vector<epoch_allocation> allocations = policy.plan(views);
    REDUCE_CHECK(allocations.size() == fleet.size(),
                 "policy '" << policy.name() << "' planned " << allocations.size()
                            << " allocations for " << fleet.size() << " chips");

    policy_outcome outcome;
    outcome.policy_name = run_name.empty() ? policy.name() : run_name;
    outcome.accuracy_constraint = constraint;
    outcome.chips.resize(fleet.size());
    stats_ = fleet_run_stats{};

    // Completed-but-not-yet-sunk snapshots. Flushed as a fleet-order prefix
    // so memory stays bounded by worker skew, not O(fleet).
    std::vector<model_snapshot> pending;
    std::vector<bool> ready;
    std::size_t next_sink = 0;
    if (sink_) {
        pending.resize(fleet.size());
        ready.assign(fleet.size(), false);
    }

    // Chips are claimed in fleet-order blocks — one grouped
    // accuracy_before pass per block when grouping is on. The claim width
    // is the eval group CAPPED at an even fleet/worker split, so a huge
    // --eval-batch-chips can shrink its grouping benefit but never
    // serialize the fleet onto one worker. Block membership is a pure
    // function of fleet order and the worker count, and grouping never
    // changes values, so outcomes stay identical either way.
    //
    // Two-level budget: fleet workers fan out over chips while each
    // worker's tensor kernels draw on the (guarded) intra-op budget — see
    // resolve_thread_budget for the oversubscription rule. Neither level
    // changes a single outcome bit.
    const thread_budget budget =
        resolve_thread_budget(cfg_.threads, cfg_.gemm_threads, fleet.size());
    const std::size_t worker_budget = budget.fleet_workers;
    // The claim width serves BOTH grouping knobs: a block is the unit of
    // grouped accuracy_before evaluation AND the pool grouped training
    // carves same-allocation runs from.
    const std::size_t claim_width = std::max<std::size_t>(
        {cfg_.eval_batch_chips, cfg_.train_batch_chips, std::size_t{1}});
    const std::size_t group =
        cap_group_at_fair_share(claim_width, fleet.size(), worker_budget);
    // Spawn no more workers than there are claimable blocks — a surplus
    // worker would deep-clone a tuner model just to find the queue empty.
    const std::size_t workers =
        std::min(worker_budget, (fleet.size() + group - 1) / group);
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::size_t completed = 0;  // guarded by progress_mutex
    std::mutex progress_mutex;
    auto worker = [&]() {
        chip_tuner tuner(model_, pretrained_, train_data_, test_data_, array_,
                         trainer_cfg_);
        // Per-worker scratch: the tuner's retraining loops draw im2col/GEMM
        // buffers from this thread's arena, warmed by the first chip and
        // reused for every chip after it.
        workspace& arena = workspace::local();
        tuner.set_capture_tuned(static_cast<bool>(sink_));
        tuner.set_scenario(cfg_.scenario);
        // Built lazily: a worker that never claims a multi-chip block
        // (ragged tails, tiny fleets) never clones for it.
        std::unique_ptr<multi_mask_evaluator> evaluator;

        // Sink flushing — caller must hold progress_mutex. Snapshots leave
        // as a fleet-order prefix regardless of completion order.
        auto flush_sinks = [&]() {
            while (next_sink < fleet.size() && ready[next_sink]) {
                sink_(fleet[next_sink], pending[next_sink]);
                pending[next_sink] = model_snapshot{};  // free eagerly
                ++next_sink;
            }
        };

        // One lockstep episode over the same-allocation run [s, e) of the
        // block claimed at `begin`; `before` spans the block when grouped
        // evaluation ran.
        auto tune_run = [&](std::size_t s, std::size_t e, std::size_t begin,
                            const std::vector<double>& before) {
            const std::size_t k = e - s;
            std::vector<const chip*> chips(k);
            std::vector<const epoch_allocation*> allocs(k);
            std::vector<double> rates(k);
            std::vector<double> before_slice;
            for (std::size_t g = 0; g < k; ++g) {
                chips[g] = &fleet[s + g];
                allocs[g] = &allocations[s + g];
                rates[g] = views[s + g].effective_fault_rate;
                if (!before.empty()) { before_slice.push_back(before[s + g - begin]); }
            }
            const std::vector<chip_outcome> results =
                tuner.tune_group(chips, allocs, constraint, rates, before_slice);
            for (std::size_t g = 0; g < k; ++g) {
                const std::size_t i = s + g;
                const chip_outcome& co = results[g];
                outcome.chips[i] = co;
                LOG_DEBUG << outcome.policy_name << ": chip " << fleet[i].id
                          << " rate=" << views[i].effective_fault_rate
                          << " epochs=" << allocations[i].epochs
                          << " acc=" << co.final_accuracy << " (x" << k << ")";
                if (co.hit_nonfinite) {
                    LOG_WARN << outcome.policy_name << ": chip " << fleet[i].id
                             << " retraining diverged to non-finite state (reported "
                             << "accuracy 0.0, " << co.rollbacks << " rollbacks used)";
                }
                // Count, notify, and sink under one lock: the reported
                // 'completed' sequence is strictly increasing and sinks fire
                // in fleet order regardless of which worker finished first.
                std::lock_guard<std::mutex> lock(progress_mutex);
                if (g == 0 && k > 1) {
                    ++stats_.grouped_train_groups;
                    stats_.grouped_train_chips += k;
                }
                if (k == 1) { ++stats_.serial_train_chips; }
                if (co.hit_nonfinite) { ++stats_.serial_nonfinite_chips; }
                stats_.timeline_events += co.events_applied;
                stats_.timeline_rollbacks += co.rollbacks;
                stats_.timeline_restarts += co.restarts;
                ++completed;
                if (progress_) { progress_(completed, fleet.size(), outcome.chips[i]); }
                if (sink_) {
                    pending[i] = tuner.take_tuned(g);
                    ready[i] = true;
                    flush_sinks();
                }
            }
        };

        for (;;) {
            // Stop picking up work once any chip has failed — the whole
            // outcome is void, so finishing the fleet would be wasted epochs.
            if (failed.load(std::memory_order_relaxed)) { return; }
            const std::size_t begin = next.fetch_add(group);
            if (begin >= fleet.size()) {
                LOG_DEBUG << "fleet worker done; arena high-water "
                          << arena.peak_floats() * sizeof(float) << " bytes";
                return;
            }
            const std::size_t end = std::min(fleet.size(), begin + group);
            try {
                std::vector<double> before;
                if (end - begin > 1 && cfg_.eval_batch_chips > 1) {
                    if (!evaluator) {
                        evaluator = std::make_unique<multi_mask_evaluator>(
                            model_, pretrained_, test_data_, array_, trainer_cfg_);
                    }
                    std::vector<const fault_grid*> grids;
                    grids.reserve(end - begin);
                    for (std::size_t i = begin; i < end; ++i) {
                        grids.push_back(&fleet[i].faults);
                    }
                    before = evaluator->evaluate(grids);
                }
                // Carve the block into maximal same-allocation runs —
                // lockstep training shares one batch schedule, so only chips
                // with identical (epochs, train_to_target) group — and each
                // run into episodes of at most train_batch_chips.
                const bool grouping = cfg_.train_batch_chips > 1 && end - begin > 1;
                const std::size_t episode = grouping ? cfg_.train_batch_chips : 1;
                for (std::size_t s = begin; s < end;) {
                    std::size_t run_end = s + 1;
                    while (run_end < end &&
                           allocations[run_end].epochs == allocations[s].epochs &&
                           allocations[run_end].train_to_target ==
                               allocations[s].train_to_target) {
                        ++run_end;
                    }
                    if (grouping && run_end - s == 1) {
                        std::lock_guard<std::mutex> lock(progress_mutex);
                        ++stats_.alloc_downgrades;
                    }
                    for (std::size_t c = s; c < run_end;) {
                        if (failed.load(std::memory_order_relaxed)) { return; }
                        const std::size_t ce = std::min(run_end, c + episode);
                        tune_run(c, ce, begin, before);
                        c = ce;
                    }
                    s = run_end;
                }
            } catch (...) {
                failed.store(true, std::memory_order_relaxed);
                throw;
            }
        }
    };

    const scoped_intra_op_threads intra(budget.gemm_threads);
    run_workers(workers, worker);
    if (cfg_.train_batch_chips > 1) {
        LOG_INFO << outcome.policy_name << ": grouped retraining "
                 << stats_.grouped_train_chips << "/" << fleet.size() << " chips in "
                 << stats_.grouped_train_groups << " groups, "
                 << stats_.serial_train_chips << " alone ("
                 << stats_.alloc_downgrades << " isolated by allocation)";
    }
    if (!cfg_.scenario.empty()) {
        LOG_INFO << outcome.policy_name << ": fault timeline fired "
                 << stats_.timeline_events << " events across the fleet ("
                 << stats_.timeline_rollbacks << " rollbacks, "
                 << stats_.timeline_restarts << " restarts, "
                 << stats_.serial_nonfinite_chips << " non-finite chips)";
    }
    return outcome;
}

}  // namespace reduce
