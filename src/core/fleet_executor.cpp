#include "core/fleet_executor.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "tensor/workspace.h"
#include "util/error.h"
#include "util/log.h"
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
    : pretrained_(pretrained),
      array_(array),
      clone_(clone_model(prototype)),
      trainer_(*clone_, train_data, test_data, trainer_cfg) {
    // Every episode's guard leaves the clone at the pretrained snapshot.
    restore_parameters(clone_->parameters(), pretrained_);
}

chip_outcome chip_tuner::tune(const chip& c, const epoch_allocation& alloc,
                              double constraint, double effective_rate,
                              std::optional<double> accuracy_before) {
    tuned_.clear();
    // The oracle trains on the shared checkpoint grid and stops at the
    // first point meeting the target: the charge, and the deployable model.
    // The timeline is a pure function of (scenario.seed, chip id), so any
    // worker on any machine replays the same event contents for a chip.
    const bool to_target = alloc.train_to_target && alloc.epochs > 0.0;
    episode ep{.seed = c.seed,
               .faults = c.faults,
               .timeline = timeline_for_chip(scenario_, c.id),
               .budget = alloc.epochs,
               .grid = to_target ? make_eval_grid(alloc.epochs, 1.0, 0.05, 0.5)
                                 : std::vector<double>{},
               .target = to_target ? std::optional<double>(constraint) : std::nullopt,
               .epoch0_accuracy = accuracy_before};
    // Full deployable capture: parameters AND state buffers (the batch-norm
    // statistics behind the reported accuracy), before the guard's restore.
    const episode_result r = run_episode(
        trainer_, pretrained_, array_, std::move(ep),
        capture_tuned_ ? trained_model_observer([this](sequential& trained) {
            tuned_.push_back(snapshot_model(trained));
        })
                       : nullptr);
    const fat_result& result = r.fat;

    chip_outcome out;
    out.chip_id = c.id;
    out.nominal_fault_rate = c.nominal_fault_rate;
    out.effective_fault_rate = effective_rate;
    out.masked_weight_fraction = r.masks.masked_fraction();
    out.epochs_allocated = alloc.epochs;
    out.selection_failed = alloc.selection_failed;
    // Post-FAP accuracy: the episode's epoch-0 point, injected or evaluated.
    out.accuracy_before = result.trajectory.front().test_accuracy;
    out.events_applied = result.events_applied;
    out.rollbacks = result.rollbacks;
    out.restarts = result.restarts;
    out.hit_nonfinite = result.hit_nonfinite;
    out.final_accuracy = result.final_accuracy;
    // A run stopped at its target is charged the checkpoint's label.
    const std::optional<double> reached =
        to_target ? epochs_to_reach(result.trajectory, constraint) : std::nullopt;
    out.epochs_run = reached.value_or(result.epochs_run);
    out.meets_constraint = out.final_accuracy >= constraint;
    return out;
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
    std::vector<chip_outcome> outcomes;
    outcomes.reserve(k);
    std::vector<model_snapshot> tuned;
    for (std::size_t g = 0; g < k; ++g) {
        const std::optional<double> before =
            accuracy_before.empty() ? std::nullopt : std::optional<double>(accuracy_before[g]);
        outcomes.push_back(tune(*chips[g], *allocs[g], constraint, effective_rates[g], before));
        if (capture_tuned_) { tuned.push_back(std::move(tuned_.front())); }
    }
    tuned_ = std::move(tuned);
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
    resilience_analyzer analyzer(model_, pretrained_, train_data_, test_data_, array_,
                                 trainer_cfg_);
    return analyzer.analyze(cfg, opts);
}

policy_outcome fleet_executor::run(const retraining_policy& policy,
                                   const std::vector<chip>& fleet,
                                   const std::string& run_name) {
    const fleet_plan plan = plan_fleet(model_, array_, policy, fleet);
    const double constraint = plan.constraint;
    const std::vector<epoch_allocation>& allocations = plan.allocations;

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

    // Chips are claimed in fleet-order blocks. The claim width is
    // train_batch_chips CAPPED at an even fleet/worker split, so a huge
    // --train-batch-chips can never serialize the fleet onto one worker.
    // Block membership is a pure function of fleet order and the worker
    // count, and every chip runs its own episode, so outcomes stay
    // identical either way.
    const std::size_t worker_budget = resolve_thread_count(cfg_.threads, fleet.size());
    // A block is the pool the run counters carve same-allocation groups
    // from.
    const std::size_t group = cap_group_at_fair_share(
        std::max<std::size_t>(cfg_.train_batch_chips, 1), fleet.size(), worker_budget);
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

        // Sink flushing — caller must hold progress_mutex. Snapshots leave
        // as a fleet-order prefix regardless of completion order.
        auto flush_sinks = [&]() {
            while (next_sink < fleet.size() && ready[next_sink]) {
                sink_(fleet[next_sink], pending[next_sink]);
                pending[next_sink] = model_snapshot{};  // free eagerly
                ++next_sink;
            }
        };

        // Tunes the same-allocation group [s, e), one chip at a time.
        auto tune_run = [&](std::size_t s, std::size_t e) {
            const std::size_t k = e - s;
            for (std::size_t i = s; i < e; ++i) {
                if (failed.load(std::memory_order_relaxed)) { return; }
                const chip_outcome co = tuner.tune(fleet[i], allocations[i], constraint,
                                                   plan.effective_rates[i]);
                outcome.chips[i] = co;
                LOG_DEBUG << outcome.policy_name << ": chip " << fleet[i].id
                          << " rate=" << plan.effective_rates[i]
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
                if (i == s && k > 1) {
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
                    pending[i] = tuner.take_tuned();
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
                // Carve the block into maximal same-allocation runs — only
                // chips with identical (epochs, train_to_target) group — and
                // each run into groups of at most train_batch_chips. The
                // groups only shape the run counters.
                const bool grouping = cfg_.train_batch_chips > 1 && end - begin > 1;
                const std::size_t width = grouping ? cfg_.train_batch_chips : 1;
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
                        const std::size_t ce = std::min(run_end, c + width);
                        tune_run(c, ce);
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
