// perfbench — the repo benchmark: time to retrain a chip lot end to end.
//
// One run builds a workload (dataset, pretrained model, seeded chip lot),
// then repeats the Reduce pipeline on it for --seconds: Step 1 (the
// resilience sweep) and Steps 2+3 (reduce-policy epoch choice and per-chip
// retraining over the lot). Every repetition's outputs are digested and
// checked against the paper's invariants; the untraced run reports the
// end-to-end metrics, the traced run (--trace 1) drives the same pipeline
// layer by layer from outside the library and reports per-layer metrics.
//
// Workloads (why each exists is recorded in BENCHMARK.json):
//   mlp_lot   standard MLP on the 256x256 array, 4 inter-op workers, serial
//             GEMMs — per-episode fixed costs dominate;
//   vgg_lot   VGG11 x0.125 on 8x8x3 images on a 64x64 array, 4 workers x 1
//             GEMM thread, grouped eval/training (K = 8) — conv GEMMs
//             dominate (4 GEMM threads per worker measured no faster here,
//             and several times noisier run to run);
//   mlp_dist  the mlp_lot shape served by an in-process coordinator and two
//             loopback workers, journaled, snapshots collected, every cell
//             and chip under a strike timeline.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --scratch DIR [--report FILE] [--smoke]
//                  [--git-commit SHA] [--source-digest HEX]
// The last stdout line is the result object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// Exit status: 0 when every output is correct, 1 on a correctness failure or
// an error; never non-zero because of a timing.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/fleet_executor.h"
#include "core/grouped_fat_trainer.h"
#include "core/multi_mask_eval.h"
#include "core/policy.h"
#include "core/resilience.h"
#include "core/workload.h"
#include "data/loader.h"
#include "data/synthetic.h"
#include "dist/coordinator.h"
#include "dist/journal.h"
#include "dist/protocol.h"
#include "dist/worker.h"
#include "fault/chip.h"
#include "fault/mask_builder.h"
#include "fault/scenario.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "nn/optim.h"
#include "nn/serialize.h"
#include "tensor/ops.h"
#include "trace.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/json.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

using namespace reduce;
using perfbench::median;
using perfbench::scoped_span;
using perfbench::span_recorder;

namespace {

// ---- workload definitions ---------------------------------------------------

struct lot_spec {
    std::string name;
    bool vgg = false;
    bool distributed = false;
    // Step 1 grid.
    std::vector<double> rates;
    std::size_t repeats = 1;
    double budget = 1.0;
    // The chip lot: nominal rates stratified over [rate_lo, rate_hi].
    std::size_t chips = 1;
    double rate_lo = 0.01;
    double rate_hi = 0.30;
    double constraint = 0.9;
    // Execution shape.
    std::size_t workers = 1;
    std::size_t gemm_threads = 1;
    std::size_t eval_batch = 1;
    std::size_t train_batch = 1;
    std::string scenario;
    std::size_t setup_reps = 5;
};

lot_spec spec_for(const std::string& name, bool smoke) {
    lot_spec s;
    s.name = name;
    if (name == "mlp_lot" || name == "mlp_dist") {
        s.rates = {0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3};  // the fig3 Step-1 grid
        s.repeats = 5;
        s.budget = 6.0;
        s.chips = 200;
        s.constraint = 0.90;
        s.workers = 4;
        if (name == "mlp_dist") {
            s.distributed = true;
            s.workers = 2;
            s.scenario = "strike@0.1:0.05;mode=recover;rollback=2";
        }
    } else if (name == "vgg_lot") {
        s.vgg = true;
        s.rates = {0.0, 0.05, 0.1, 0.15, 0.2};
        s.repeats = 3;
        s.budget = 2.0;
        s.chips = 128;
        s.rate_hi = 0.2;
        s.constraint = 0.90;
        s.workers = 4;
        s.gemm_threads = 1;
        s.eval_batch = 8;
        s.train_batch = 8;
    } else {
        throw invalid_argument_error("unknown workload '" + name +
                                     "' (expected mlp_lot, vgg_lot or mlp_dist)");
    }
    if (smoke) {
        s.rates = {0.0, 0.3};
        s.repeats = 1;
        s.budget = 0.5;
        s.chips = 8;
        s.setup_reps = 1;
    }
    return s;
}

/// VGG11 at width 0.125 on 8x8x3 synthetic images, 64x64 array, batch 32 —
/// the Step-3 geometry of bench/micro_training's vgg_fleet, pretrained here
/// so the accuracy constraint is meaningful.
workload make_vgg_workload() {
    workload w;
    synthetic_images_config data_cfg;
    data_cfg.shape = {3, 8, 8};
    data_cfg.num_classes = 4;
    data_cfg.samples_per_class = 200;
    data_cfg.noise_stddev = 0.55;
    const dataset full = make_synthetic_images(data_cfg);
    dataset_split split = split_dataset(full, 0.75, 1);
    w.train_data = std::move(split.train);
    w.test_data = std::move(split.test);
    vgg11_config model_cfg;
    model_cfg.input = data_cfg.shape;
    model_cfg.num_classes = data_cfg.num_classes;
    model_cfg.width_multiplier = 0.125;
    rng gen(2);
    w.model = make_vgg11(model_cfg, gen);
    w.array.rows = 64;
    w.array.cols = 64;
    w.trainer_cfg.batch_size = 32;
    w.trainer_cfg.learning_rate = 0.02;
    fault_aware_trainer trainer(*w.model, w.train_data, w.test_data, w.trainer_cfg);
    w.clean_accuracy = trainer.train(30.0).final_accuracy;
    w.pretrained = snapshot_parameters(w.model->parameters());
    w.context = "perfbench-vgg11-w0.125|img3x8x8-c4-n200-ns0.55|tf0.75|pe30|bs32-lr0.02|arr64x64";
    return w;
}

/// The chip lot: chip i has nominal rate lo + (hi - lo) * (i + 0.5) / N and a
/// fault map drawn from mix_seed(seed, i). Stratified rates keep the lot's
/// rate mix identical across seeds, so the seed moves only the fault maps.
std::vector<chip> make_lot(const lot_spec& s, const array_config& array, std::uint64_t seed) {
    std::vector<chip> lot;
    lot.reserve(s.chips);
    for (std::size_t i = 0; i < s.chips; ++i) {
        fleet_config fc;
        fc.num_chips = 1;
        fc.distribution = rate_distribution::fixed;
        fc.rate_lo = s.rate_lo + (s.rate_hi - s.rate_lo) * (static_cast<double>(i) + 0.5) /
                                     static_cast<double>(s.chips);
        fc.rate_hi = fc.rate_lo;
        fc.seed = mix_seed(seed, i);
        chip c = std::move(make_fleet(array, fc).front());
        c.id = i;
        lot.push_back(std::move(c));
    }
    return lot;
}

/// Step 1 characterizes the model, not the lot, so its fault-map seed is
/// fixed: the run seed draws only the chip lot, and every seed sweeps the
/// same cells.
resilience_config sweep_config(const lot_spec& s, const workload& w) {
    resilience_config rc;
    rc.fault_rates = s.rates;
    rc.repeats = s.repeats;
    rc.max_epochs = s.budget;
    rc.seed = 20230309;
    rc.context = w.context;
    rc.scenario = parse_scenario(s.scenario);
    return rc;
}

selector_config selector_for(const lot_spec& s) {
    selector_config sel;
    sel.accuracy_target = s.constraint;
    sel.stat = statistic::max;  // the paper's recommendation
    return sel;
}

// ---- digests and invariants -------------------------------------------------

std::uint64_t table_digest(const resilience_table& table) {
    return perfbench::fnv1a64(table.to_json().dump());
}

std::uint64_t outcome_digest(const policy_outcome& outcome) {
    std::uint64_t h = perfbench::fnv1a64(outcome.policy_name);
    h = perfbench::fnv1a64(json_value(outcome.accuracy_constraint).dump(), h);
    for (const chip_outcome& c : outcome.chips) {
        h = perfbench::fnv1a64(dist::chip_outcome_to_json(c).dump(), h);
    }
    return h;
}

/// Correctness gate of one repetition. A chip that misses the constraint
/// below its budget is not an error — Reduce's Step 2 is a statistical
/// prediction and the paper's Fig. 3 shows such chips — but it must be
/// reported as a miss, never as a success.
std::vector<std::string> check_invariants(const resilience_table& table,
                                          const policy_outcome& outcome,
                                          std::size_t lot_size) {
    std::vector<std::string> problems;
    if (!table.complete()) { problems.push_back("Step-1 table is not complete()"); }
    if (outcome.chips.size() != lot_size) {
        problems.push_back("fleet outcome covers " + std::to_string(outcome.chips.size()) +
                           " of " + std::to_string(lot_size) + " chips");
    }
    const double budget = table.max_epochs();
    for (std::size_t i = 0; i < outcome.chips.size(); ++i) {
        const chip_outcome& c = outcome.chips[i];
        const std::string who = "chip " + std::to_string(c.chip_id);
        if (c.chip_id != i) { problems.push_back(who + " out of fleet order"); }
        if (c.epochs_allocated > budget + 1e-9) {
            problems.push_back(who + " allocated " + std::to_string(c.epochs_allocated) +
                               " epochs, above the table budget " + std::to_string(budget));
        }
        if (c.selection_failed && c.epochs_allocated != budget) {
            problems.push_back(who + " failed selection but did not get the full budget");
        }
        if (!std::isfinite(c.final_accuracy) || !std::isfinite(c.accuracy_before)) {
            problems.push_back(who + " reports a non-finite accuracy");
        }
        if (c.meets_constraint != (c.final_accuracy >= outcome.accuracy_constraint)) {
            problems.push_back(who + " misreports meets_constraint");
        }
    }
    return problems;
}

double wasted_epochs(const policy_outcome& outcome) {
    double wasted = 0.0;
    for (const chip_outcome& c : outcome.chips) {
        if (!c.meets_constraint) { wasted += c.epochs_run; }
    }
    return wasted;
}

// ---- one pipeline repetition ------------------------------------------------

struct fleet_counts {
    std::size_t grouped_chips = 0;
    std::size_t serial_chips = 0;
    std::size_t alloc_downgrades = 0;
    std::size_t nonfinite_downgrades = 0;
    std::size_t scenario_downgrades = 0;
    std::size_t rollbacks = 0;

    bool operator==(const fleet_counts&) const = default;
};

fleet_counts counts_from(const fleet_run_stats& s) {
    return {s.grouped_train_chips, s.serial_train_chips, s.alloc_downgrades,
            s.nonfinite_downgrades, s.scenario_downgrades, s.timeline_rollbacks};
}

struct lot_run {
    std::optional<resilience_table> table;
    policy_outcome outcome;
    double sweep_s = 0.0;
    double fleet_s = 0.0;
    double connect_s = 0.0;  ///< distributed: coordinator start + worker admission
    std::uint64_t digest = 0;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> problems;
    fleet_counts counts;
    dist::coordinator_stats sweep_stats;
    dist::coordinator_stats fleet_stats;
    double lot_s() const { return sweep_s + fleet_s; }
};

/// Digest of a whole repetition: the Step-1 table, the fleet outcomes and —
/// when the run collected them — the tuned snapshots.
std::uint64_t lot_digest(const resilience_table& table, const policy_outcome& outcome,
                         std::uint64_t snapshot_digest) {
    std::uint64_t h = perfbench::fnv1a64(perfbench::hex64(table_digest(table)));
    h = perfbench::fnv1a64(perfbench::hex64(outcome_digest(outcome)), h);
    return perfbench::fnv1a64(perfbench::hex64(snapshot_digest), h);
}

void finish_run(lot_run& run, const lot_spec& s) {
    run.problems = check_invariants(*run.table, run.outcome, s.chips);
    run.attempted += run.table->runs().size() + run.outcome.chips.size();
    for (const chip_outcome& c : run.outcome.chips) {
        if (c.hit_nonfinite) { ++run.failed; }
    }
}

lot_run run_local(const lot_spec& s, workload& w, const std::vector<chip>& lot,
                  const resilience_config& rc) {
    lot_run run;
    stopwatch t;
    resilience_analyzer analyzer(*w.model, w.pretrained, w.train_data, w.test_data, w.array,
                                 w.trainer_cfg);
    sweep_options opts;
    opts.threads = s.workers;
    opts.gemm_threads = s.gemm_threads;
    opts.eval_group = s.eval_batch;
    run.table = analyzer.analyze(rc, opts);
    run.sweep_s = t.seconds();

    t.reset();
    const reduce_policy policy(*run.table, selector_for(s));
    fleet_executor executor(*w.model, w.pretrained, w.train_data, w.test_data, w.array,
                            w.trainer_cfg,
                            fleet_executor_config{.threads = s.workers,
                                                  .gemm_threads = s.gemm_threads,
                                                  .eval_batch_chips = s.eval_batch,
                                                  .train_batch_chips = s.train_batch,
                                                  .scenario = rc.scenario});
    run.outcome = executor.run(policy, lot);
    run.fleet_s = t.seconds();
    run.counts = counts_from(executor.last_run_stats());
    run.digest = lot_digest(*run.table, run.outcome, 0);
    finish_run(run, s);
    return run;
}

/// Polls until the coordinator admitted `n` workers; returns false on timeout.
bool wait_admitted(const dist::coordinator& coord, std::size_t n) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (coord.stats().workers_admitted < n) {
        if (std::chrono::steady_clock::now() >= deadline) { return false; }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return true;
}

/// In-process loopback workers of one distributed job. Joined on
/// destruction; a worker's exception or abnormal ending is recorded, never
/// allowed to escape its thread.
class worker_group {
public:
    worker_group(const lot_spec& s, const workload& w, const resilience_config& rc, int port) {
        reports_.resize(s.workers);
        errors_.resize(s.workers);
        for (std::size_t i = 0; i < s.workers; ++i) {
            threads_.emplace_back([this, &s, &w, &rc, port, i] {
                try {
                    dist::worker_config wc;
                    wc.port = port;
                    wc.name = "perfbench-w" + std::to_string(i);
                    wc.gemm_threads = s.gemm_threads;
                    dist::worker node(wc, *w.model, w.pretrained, w.train_data, w.test_data,
                                      w.array, w.trainer_cfg, rc);
                    reports_[i] = node.run();
                } catch (const std::exception& e) {
                    errors_[i] = e.what();
                }
            });
        }
    }
    worker_group(const worker_group&) = delete;
    worker_group& operator=(const worker_group&) = delete;
    ~worker_group() { join(); }

    void join() {
        for (std::thread& t : threads_) {
            if (t.joinable()) { t.join(); }
        }
    }

    /// Abnormal endings after join(): errors, rejections, lost sessions.
    std::vector<std::string> problems() const {
        std::vector<std::string> out;
        for (std::size_t i = 0; i < reports_.size(); ++i) {
            const std::string who = "worker " + std::to_string(i);
            if (!errors_[i].empty()) { out.push_back(who + " threw: " + errors_[i]); }
            if (reports_[i].rejected) { out.push_back(who + " rejected: " + reports_[i].reject_reason); }
            if (reports_[i].connection_lost) { out.push_back(who + " lost its session"); }
        }
        return out;
    }

private:
    std::vector<dist::worker_report> reports_;
    std::vector<std::string> errors_;
    std::vector<std::thread> threads_;
};

lot_run run_distributed(const lot_spec& s, workload& w, const std::vector<chip>& lot,
                        const resilience_config& rc, const std::filesystem::path& scratch) {
    lot_run run;
    std::filesystem::remove_all(scratch);
    const std::string fingerprint = resilience_fingerprint(rc);
    std::vector<std::string> transport;

    // Step 1 as a coordinator sweep job.
    stopwatch t;
    {
        dist::coordinator_config cc;
        cc.journal_dir = (scratch / "sweep").string();
        dist::coordinator coord(cc, dist::sweep_job{rc, ""});
        coord.start();
        worker_group workers(s, w, rc, coord.port());
        if (!wait_admitted(coord, s.workers)) { transport.push_back("sweep workers not admitted"); }
        run.connect_s += t.seconds();
        t.reset();
        run.table = coord.wait_table();
        workers.join();
        run.sweep_s = t.seconds();
        run.sweep_stats = coord.stats();
        for (const std::string& p : workers.problems()) { transport.push_back(p); }
    }

    // Steps 2+3: central plan, then a coordinator fleet job collecting
    // snapshots (digested in fleet order as the sink streams them).
    t.reset();
    const reduce_policy policy(*run.table, selector_for(s));
    dist::fleet_job job = dist::plan_fleet_job(*w.model, w.array, policy, lot);
    job.collect_snapshots = true;
    double plan_s = t.seconds();
    std::uint64_t snap_digest = perfbench::fnv1a64("");
    {
        stopwatch tc;
        dist::coordinator_config cc;
        cc.fingerprint = fingerprint;
        cc.journal_dir = (scratch / "fleet").string();
        dist::coordinator coord(cc, std::move(job));
        coord.set_model_sink([&snap_digest](const chip&, const model_snapshot& snap) {
            snap_digest = perfbench::fnv1a64(snapshot_to_bytes(snap), snap_digest);
        });
        coord.start();
        worker_group workers(s, w, rc, coord.port());
        if (!wait_admitted(coord, s.workers)) { transport.push_back("fleet workers not admitted"); }
        run.connect_s += tc.seconds();
        tc.reset();
        run.outcome = coord.wait_fleet();
        workers.join();
        run.fleet_s = plan_s + tc.seconds();
        run.fleet_stats = coord.stats();
        for (const std::string& p : workers.problems()) { transport.push_back(p); }
    }
    std::filesystem::remove_all(scratch);

    for (const chip_outcome& c : run.outcome.chips) { run.counts.rollbacks += c.rollbacks; }
    run.counts.serial_chips = run.outcome.chips.size();
    run.digest = lot_digest(*run.table, run.outcome, snap_digest);
    finish_run(run, s);
    // A reassigned lease is an op that failed on its first worker.
    run.failed += run.sweep_stats.leases_reassigned + run.fleet_stats.leases_reassigned;
    run.failed += transport.size();
    for (std::string& p : transport) { run.problems.push_back(std::move(p)); }
    return run;
}

// ---- the traced run: the same pipeline, driven layer by layer -------------

struct traced_run {
    lot_run run;
    std::vector<double> cell_ms;
    std::vector<double> tune_ms;
    std::vector<double> plan_ms;
    double sweep_busy_ms = 0.0;
    double fleet_busy_ms = 0.0;
    std::size_t sweep_workers = 1;
    std::size_t fleet_workers = 1;
};

/// Step 1 as per-cell analyze_cells calls merged with merge_into, then
/// Step 2 via plan_fleet_job and Step 3 as per-chip tune / per-group
/// tune_group calls, claimed in blocks exactly as fleet_executor::run
/// claims them — so outcomes and the grouping counters must match the
/// untraced run byte for byte.
traced_run run_traced(const lot_spec& s, workload& w, const std::vector<chip>& lot,
                      const resilience_config& rc, span_recorder& rec, std::uint64_t run_id) {
    traced_run tr;
    lot_run& run = tr.run;
    const scoped_span lot_span(rec, "lot", -1, run_id);
    const bool capture = s.distributed;

    // Step 1.
    const std::vector<sweep_cell> cells = enumerate_sweep_cells(rc);
    std::vector<std::optional<resilience_table>> shards(cells.size());
    std::vector<double> cell_ms(cells.size());
    stopwatch t;
    {
        const scoped_span sweep_span(rec, "core.sweep", lot_span.index(), run_id);
        resilience_analyzer analyzer(*w.model, w.pretrained, w.train_data, w.test_data,
                                     w.array, w.trainer_cfg);
        sweep_options opts;
        opts.threads = 1;
        opts.gemm_threads = s.gemm_threads;
        const thread_budget budget = resolve_thread_budget(s.workers, s.gemm_threads, cells.size());
        opts.gemm_threads = budget.gemm_threads;
        tr.sweep_workers = budget.fleet_workers;
        std::atomic<std::size_t> next{0};
        run_workers(budget.fleet_workers, [&] {
            for (;;) {
                const std::size_t i = next.fetch_add(1);
                if (i >= cells.size()) { return; }
                stopwatch tc;
                const scoped_span cell_span(rec, "core.sweep.cell", sweep_span.index(), run_id);
                shards[i] = analyzer.analyze_cells(rc, {cells[i]}, opts);
                cell_ms[i] = tc.milliseconds();
            }
        });
        run.table = std::move(*shards[0]);
        for (std::size_t i = 1; i < shards.size(); ++i) {
            resilience_table::merge_into(*run.table, *shards[i]);
        }
    }
    run.sweep_s = t.seconds();
    tr.cell_ms = cell_ms;
    for (const double ms : cell_ms) { tr.sweep_busy_ms += ms; }

    // Step 2.
    t.reset();
    const scoped_span fleet_span(rec, "core.fleet", lot_span.index(), run_id);
    const reduce_policy policy(*run.table, selector_for(s));
    std::optional<dist::fleet_job> job;
    {
        stopwatch tp;
        const scoped_span plan_span(rec, "core.policy.plan", fleet_span.index(), run_id);
        job = dist::plan_fleet_job(*w.model, w.array, policy, lot);
        tr.plan_ms.push_back(tp.milliseconds());
    }

    // Step 3.
    const std::size_t n = lot.size();
    std::vector<chip_outcome> outcomes(n);
    std::vector<std::string> snapshots(capture ? n : 0);
    const thread_budget budget = resolve_thread_budget(s.workers, s.gemm_threads, n);
    const std::size_t claim = std::max<std::size_t>({s.eval_batch, s.train_batch, 1});
    const std::size_t group = cap_group_at_fair_share(claim, n, budget.fleet_workers);
    const std::size_t workers = std::min(budget.fleet_workers, (n + group - 1) / group);
    tr.fleet_workers = workers;
    const bool scenario_serial = s.train_batch > 1 && !rc.scenario.empty();
    std::mutex mutex;  // guards run.counts, tr.tune_ms and tr.fleet_busy_ms
    std::atomic<std::size_t> next{0};
    const scoped_intra_op_threads intra(budget.gemm_threads);
    run_workers(workers, [&] {
        chip_tuner tuner(*w.model, w.pretrained, w.train_data, w.test_data, w.array,
                         w.trainer_cfg);
        tuner.set_scenario(rc.scenario);
        tuner.set_capture_tuned(capture);
        std::unique_ptr<multi_mask_evaluator> evaluator;
        std::unique_ptr<grouped_chip_tuner> gtuner;

        const auto tune_serial = [&](std::size_t i, std::size_t begin,
                                     const std::vector<double>& before) {
            stopwatch tc;
            {
                const scoped_span sp(rec, "core.fleet.tune", fleet_span.index(), run_id);
                outcomes[i] = tuner.tune(lot[i], job->allocations[i], job->constraint,
                                         job->effective_rates[i],
                                         before.empty() ? std::nullopt
                                                        : std::optional<double>(before[i - begin]));
            }
            const double ms = tc.milliseconds();
            if (capture) { snapshots[i] = snapshot_to_bytes(tuner.take_tuned()); }
            std::lock_guard<std::mutex> lock(mutex);
            ++run.counts.serial_chips;
            run.counts.rollbacks += outcomes[i].rollbacks;
            tr.tune_ms.push_back(ms);
            tr.fleet_busy_ms += ms;
        };
        const auto tune_grouped = [&](std::size_t b, std::size_t e, std::size_t begin,
                                      const std::vector<double>& before) -> bool {
            if (!gtuner) {
                gtuner = std::make_unique<grouped_chip_tuner>(
                    *w.model, w.pretrained, w.train_data, w.test_data, w.array, w.trainer_cfg);
                gtuner->set_capture_tuned(capture);
            }
            std::vector<const chip*> chips;
            std::vector<const epoch_allocation*> allocs;
            std::vector<double> rates;
            std::vector<double> before_slice;
            for (std::size_t i = b; i < e; ++i) {
                chips.push_back(&lot[i]);
                allocs.push_back(&job->allocations[i]);
                rates.push_back(job->effective_rates[i]);
                if (!before.empty()) { before_slice.push_back(before[i - begin]); }
            }
            stopwatch tc;
            std::vector<chip_outcome> results;
            try {
                const scoped_span sp(rec, "core.fleet.tune_group", fleet_span.index(), run_id);
                results = gtuner->tune_group(chips, allocs, job->constraint, rates, before_slice);
            } catch (const grouped_nonfinite_error&) {
                std::lock_guard<std::mutex> lock(mutex);
                run.counts.nonfinite_downgrades += e - b;
                return false;
            }
            const double ms = tc.milliseconds();
            for (std::size_t g = 0; g < results.size(); ++g) {
                outcomes[b + g] = results[g];
                if (capture) { snapshots[b + g] = snapshot_to_bytes(gtuner->take_tuned(g)); }
            }
            std::lock_guard<std::mutex> lock(mutex);
            run.counts.grouped_chips += e - b;
            tr.fleet_busy_ms += ms;
            return true;
        };

        for (;;) {
            const std::size_t begin = next.fetch_add(group);
            if (begin >= n) { return; }
            const std::size_t end = std::min(n, begin + group);
            std::vector<double> before;
            if (end - begin > 1 && s.eval_batch > 1) {
                if (!evaluator) {
                    evaluator = std::make_unique<multi_mask_evaluator>(
                        *w.model, w.pretrained, w.test_data, w.array, w.trainer_cfg);
                }
                std::vector<const fault_grid*> grids;
                for (std::size_t i = begin; i < end; ++i) { grids.push_back(&lot[i].faults); }
                stopwatch tc;
                {
                    const scoped_span sp(rec, "core.eval.group", fleet_span.index(), run_id);
                    before = evaluator->evaluate(grids);
                }
                const double ms = tc.milliseconds();
                std::lock_guard<std::mutex> lock(mutex);
                tr.fleet_busy_ms += ms;
            }
            if (s.train_batch > 1 && end - begin > 1 && !scenario_serial) {
                for (std::size_t b = begin; b < end;) {
                    std::size_t run_end = b + 1;
                    while (run_end < end &&
                           job->allocations[run_end].epochs == job->allocations[b].epochs &&
                           job->allocations[run_end].train_to_target ==
                               job->allocations[b].train_to_target) {
                        ++run_end;
                    }
                    if (run_end - b == 1) {
                        {
                            std::lock_guard<std::mutex> lock(mutex);
                            ++run.counts.alloc_downgrades;
                        }
                        tune_serial(b, begin, before);
                        b = run_end;
                        continue;
                    }
                    for (std::size_t c = b; c < run_end;) {
                        const std::size_t ce = std::min(run_end, c + s.train_batch);
                        const bool grouped = ce - c >= 2 && tune_grouped(c, ce, begin, before);
                        if (!grouped) {
                            for (std::size_t i = c; i < ce; ++i) { tune_serial(i, begin, before); }
                        }
                        c = ce;
                    }
                    b = run_end;
                }
            } else {
                for (std::size_t i = begin; i < end; ++i) {
                    if (scenario_serial) {
                        std::lock_guard<std::mutex> lock(mutex);
                        ++run.counts.scenario_downgrades;
                    }
                    tune_serial(i, begin, before);
                }
            }
        }
    });
    run.fleet_s = t.seconds();

    run.outcome.policy_name = job->policy_name;
    run.outcome.accuracy_constraint = job->constraint;
    run.outcome.chips = std::move(outcomes);
    std::uint64_t snap_digest = perfbench::fnv1a64("");
    for (const std::string& bytes : snapshots) {
        snap_digest = perfbench::fnv1a64(bytes, snap_digest);
    }
    run.digest = lot_digest(*run.table, run.outcome, capture ? snap_digest : 0);
    if (s.distributed) {
        // The distributed workers never group; mirror the counters they imply.
        run.counts = fleet_counts{0, n, 0, 0, 0, run.counts.rollbacks};
    }
    finish_run(run, s);
    return tr;
}

// ---- per-layer probes ---------------------------------------------------------

using metric_map = std::map<std::string, std::pair<double, std::string>>;

template <typename Fn>
double median_ms(std::size_t reps, Fn&& fn) {
    fn();  // warm caches and workspace arenas
    std::vector<double> ms;
    for (std::size_t r = 0; r < reps; ++r) {
        stopwatch t;
        fn();
        ms.push_back(t.milliseconds());
    }
    return median(ms);
}

struct layer_row {
    std::size_t index = 0;
    std::string kind;
    std::size_t rows = 0;
    std::size_t cols = 0;
    double fwd_ms = 0.0;
    double bwd_ms = 0.0;
    double fwd_gflop = 0.0;
};

/// Per-mapped-layer forward/backward times of one training step at the
/// workload batch, timed around each child layer's own forward/backward
/// (the unfused per-layer path; the fused step is nn.step.*).
std::vector<layer_row> probe_layers(sequential& model, const batch& b, std::size_t reps) {
    std::vector<std::size_t> mapped_positions;
    for (std::size_t j = 0; j < model.size(); ++j) {
        const std::string kind = model.layer(j).name();
        if (kind == "linear" || kind == "conv2d") { mapped_positions.push_back(j); }
    }
    const std::vector<mapped_layer> mapped = collect_mapped_layers(model);
    REDUCE_CHECK(mapped.size() == mapped_positions.size(), "mapped layer walk disagrees");
    std::vector<std::vector<double>> fwd(model.size());
    std::vector<std::vector<double>> bwd(model.size());
    std::vector<std::size_t> out_numel(model.size());
    model.set_training(true);
    for (std::size_t r = 0; r < reps + 1; ++r) {
        tensor x = b.features;
        for (std::size_t j = 0; j < model.size(); ++j) {
            stopwatch t;
            x = model.layer(j).forward(x);
            if (r > 0) { fwd[j].push_back(t.milliseconds()); }
            out_numel[j] = x.numel();
        }
        tensor g = cross_entropy_loss(x, b.labels).grad;
        zero_all_grads(model.parameters());
        for (std::size_t j = model.size(); j-- > 0;) {
            stopwatch t;
            g = model.layer(j).backward(g);
            if (r > 0) { bwd[j].push_back(t.milliseconds()); }
        }
    }
    std::vector<layer_row> rows;
    for (std::size_t i = 0; i < mapped.size(); ++i) {
        const std::size_t j = mapped_positions[i];
        layer_row row;
        row.index = i;
        row.kind = mapped[i].kind;
        row.rows = mapped[i].rows;
        row.cols = mapped[i].cols;
        row.fwd_ms = median(fwd[j]);
        row.bwd_ms = median(bwd[j]);
        // Output elements = batch positions x fan-out; each is a fan-in-deep
        // multiply-add chain.
        row.fwd_gflop = 2.0 * static_cast<double>(out_numel[j]) *
                        static_cast<double>(mapped[i].rows) / 1e9;
        rows.push_back(row);
    }
    return rows;
}

double gemm_peak_gflops(std::size_t threads) {
    const scoped_intra_op_threads intra(threads);
    const std::size_t n = 256;
    rng gen(17);
    std::vector<float> av(n * n);
    std::vector<float> bv(n * n);
    for (float& v : av) { v = static_cast<float>(gen.uniform(-1.0, 1.0)); }
    for (float& v : bv) { v = static_cast<float>(gen.uniform(-1.0, 1.0)); }
    const tensor a({n, n}, av);
    const tensor b({n, n}, bv);
    double best_ms = 1e300;
    (void)matmul(a, b);
    for (int r = 0; r < 20; ++r) {
        stopwatch t;
        const tensor c = matmul(a, b);
        best_ms = std::min(best_ms, t.milliseconds());
        REDUCE_CHECK(std::isfinite(c[0]), "matmul produced a non-finite value");
    }
    return 2.0 * static_cast<double>(n * n * n) / (best_ms * 1e6);
}

void probe_layers_into(metric_map& m, json_array& roofline, const lot_spec& s, workload& w,
                       const std::vector<chip>& lot, const resilience_table& table,
                       const policy_outcome& outcome, const std::filesystem::path& scratch) {
    const thread_budget budget = resolve_thread_budget(s.workers, s.gemm_threads, lot.size());
    const std::size_t gemm = budget.gemm_threads;
    const double peak = gemm_peak_gflops(gemm);
    m["tensor.gemm.peak_gflops"] = {peak, "GFLOP/s"};

    const scoped_intra_op_threads intra(gemm);
    const fat_config& cfg = w.trainer_cfg;
    std::unique_ptr<sequential> model = clone_model(*w.model);
    restore_parameters(model->parameters(), w.pretrained);
    data_loader loader(w.train_data, cfg.batch_size, 5);
    const batch b = loader.next_batch();

    // nn: one training step at the workload batch, phase by phase.
    {
        sgd opt(model->parameters(), {.learning_rate = cfg.learning_rate,
                                      .momentum = cfg.momentum,
                                      .weight_decay = cfg.weight_decay});
        model->set_training(true);
        std::vector<double> f, bw, o;
        for (int r = 0; r < 31; ++r) {
            stopwatch t;
            const tensor logits = model->forward(b.features);
            const double fm = t.milliseconds();
            const loss_result loss = cross_entropy_loss(logits, b.labels);
            t.reset();
            opt.zero_grad();
            model->backward(loss.grad);
            const double bm = t.milliseconds();
            t.reset();
            opt.step();
            const double om = t.milliseconds();
            if (r > 0) {
                f.push_back(fm);
                bw.push_back(bm);
                o.push_back(om);
            }
        }
        m["nn.step.forward_ms"] = {median(f), "ms"};
        m["nn.step.backward_ms"] = {median(bw), "ms"};
        m["nn.step.optim_ms"] = {median(o), "ms"};
        restore_parameters(model->parameters(), w.pretrained);
        attach_fault_masks(*model, w.array, lot.front().faults);
        sgd masked_opt(model->parameters(), {.learning_rate = cfg.learning_rate,
                                             .momentum = cfg.momentum,
                                             .weight_decay = cfg.weight_decay});
        m["nn.step.masked_ms"] = {median_ms(30,
                                            [&] {
                                                const loss_result loss = cross_entropy_loss(
                                                    model->forward(b.features), b.labels);
                                                masked_opt.zero_grad();
                                                model->backward(loss.grad);
                                                masked_opt.step();
                                            }),
                                  "ms"};
        clear_fault_masks(*model);
        restore_parameters(model->parameters(), w.pretrained);
    }

    // nn.L<i>: the per-layer roofline against the peak measured above.
    for (const layer_row& row : probe_layers(*model, b, 20)) {
        const std::string key = "nn.L" + std::to_string(row.index);
        const double fwd_gflops = row.fwd_gflop / (row.fwd_ms * 1e-3);
        const double bwd_gflops = 2.0 * row.fwd_gflop / (row.bwd_ms * 1e-3);
        m[key + ".fwd_ms"] = {row.fwd_ms, "ms"};
        m[key + ".bwd_ms"] = {row.bwd_ms, "ms"};
        m[key + ".fwd_gflops"] = {fwd_gflops, "GFLOP/s"};
        m[key + ".bwd_gflops"] = {bwd_gflops, "GFLOP/s"};
        json_object entry;
        entry.set("layer", json_value(key));
        entry.set("kind", json_value(row.kind));
        entry.set("fan_in", json_value(row.rows));
        entry.set("fan_out", json_value(row.cols));
        entry.set("fwd_ms", json_value(row.fwd_ms));
        entry.set("bwd_ms", json_value(row.bwd_ms));
        entry.set("fwd_gflops", json_value(fwd_gflops));
        entry.set("bwd_gflops", json_value(bwd_gflops));
        entry.set("peak_gflops", json_value(peak));
        entry.set("fwd_share_of_peak", json_value(fwd_gflops / peak));
        entry.set("bwd_share_of_peak", json_value(bwd_gflops / peak));
        roofline.push_back(json_value(std::move(entry)));
    }
    restore_parameters(model->parameters(), w.pretrained);

    // data: one loader batch gather.
    m["data.batch_ms"] = {median_ms(200, [&] { (void)loader.next_batch(); }), "ms"};

    // fault: mask build + attach per chip.
    {
        std::size_t i = 0;
        m["fault.mask_ms"] = {median_ms(std::min<std::size_t>(lot.size(), 100),
                                        [&] {
                                            attach_fault_masks(*model, w.array,
                                                               lot[i++ % lot.size()].faults);
                                            clear_fault_masks(*model);
                                        }),
                              "ms"};
        restore_parameters(model->parameters(), w.pretrained);
    }

    // core trainer: one epoch of masked FAT and one checkpoint evaluation.
    {
        fault_state_guard guard(*model, w.pretrained);
        attach_fault_masks(*model, w.array, lot.front().faults);
        fault_aware_trainer trainer(*model, w.train_data, w.test_data, cfg);
        const double eval_ms = median_ms(10, [&] { (void)trainer.evaluate(); });
        const double acc0 = trainer.evaluate();
        const double train_ms = median_ms(3, [&] {
            restore_parameters(model->parameters(), w.pretrained);
            apply_all_masks(model->parameters());
            (void)trainer.train(1.0, {}, acc0);
        });
        m["core.fat.eval_ms"] = {eval_ms, "ms"};
        m["core.fat.epoch_ms"] = {train_ms - eval_ms, "ms"};
    }

    // Grouped engines on the first K lot chips.
    const std::size_t k = std::min<std::size_t>(8, lot.size());
    {
        multi_mask_evaluator evaluator(*w.model, w.pretrained, w.test_data, w.array, cfg);
        std::vector<const fault_grid*> grids;
        for (std::size_t i = 0; i < k; ++i) { grids.push_back(&lot[i].faults); }
        m["core.eval.group_ms_per_chip"] = {
            median_ms(5, [&] { (void)evaluator.evaluate(grids); }) / static_cast<double>(k),
            "ms"};
    }
    {
        // One shared allocation (the lot's median) so all K chips group.
        std::vector<double> allocs;
        for (const chip_outcome& c : outcome.chips) { allocs.push_back(c.epochs_allocated); }
        epoch_allocation shared;
        shared.epochs = std::max(0.25, median(allocs));
        grouped_chip_tuner gtuner(*w.model, w.pretrained, w.train_data, w.test_data, w.array,
                                  cfg);
        std::vector<const chip*> chips;
        std::vector<const epoch_allocation*> alloc_ptrs;
        for (std::size_t i = 0; i < k; ++i) {
            chips.push_back(&lot[i]);
            alloc_ptrs.push_back(&shared);
        }
        const std::vector<double> rates(k, 0.1);
        m["core.fleet.group_ms_per_chip"] = {
            median_ms(2, [&] {
                (void)gtuner.tune_group(chips, alloc_ptrs, outcome.accuracy_constraint, rates, {});
            }) / static_cast<double>(k),
            "ms"};
    }

    // dist: result encoding and journaling of a real tuned chip.
    {
        chip_tuner tuner(*w.model, w.pretrained, w.train_data, w.test_data, w.array, cfg);
        tuner.set_capture_tuned(true);
        epoch_allocation alloc;
        alloc.epochs = outcome.chips.front().epochs_allocated;
        const chip_outcome co = tuner.tune(lot.front(), alloc, outcome.accuracy_constraint,
                                           outcome.chips.front().effective_fault_rate);
        const std::string bytes = snapshot_to_bytes(tuner.take_tuned());
        m["dist.snapshot_bytes"] = {static_cast<double>(bytes.size()), "bytes"};
        // The lease the coordinator sends out carries the chip's whole fault
        // map as JSON; time it on the lot's median-rate chip.
        const chip& mid = lot[lot.size() / 2];
        m["dist.work_encode_ms_per_unit"] = {
            median_ms(20, [&] {
                (void)dist::encode_frame(dist::make_chip_work(1, mid, alloc, 0.9, 0.1));
            }),
            "ms"};
        m["dist.encode_ms_per_unit"] = {
            median_ms(20, [&] { (void)dist::encode_frame(dist::make_chip_result(1, co, bytes)); }),
            "ms"};
        const json_value message = dist::make_chip_result(1, co, bytes);
        json_object record;
        record.set("type", json_value("unit"));
        record.set("unit", json_value(std::size_t{0}));
        record.set("outcome", message.as_object().at("outcome"));
        record.set("snapshot", message.as_object().at("snapshot"));
        const json_value record_value(std::move(record));
        std::filesystem::remove_all(scratch);
        {
            dist::journal j;
            j.open(scratch.string(), dist::job_kind::fleet, table.fingerprint(), 1000);
            m["dist.journal_append_ms"] = {median_ms(20, [&] { j.append(record_value); }),
                                           "ms"};
        }
        std::filesystem::remove_all(scratch);
    }
}

// ---- host facts and output -------------------------------------------------------

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::size_t nproc() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        return static_cast<std::size_t>(CPU_COUNT(&set));
    }
    return std::thread::hardware_concurrency();
}

/// The micro-kernel tensor/gemm.cpp dispatches to: the same CPU feature test.
std::string gemm_isa_path() {
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) { return "avx2+fma"; }
#endif
    return "portable";
}

json_value host_facts() {
    json_object host;
    host.set("hardware_concurrency",
             json_value(static_cast<std::size_t>(std::thread::hardware_concurrency())));
    host.set("nproc", json_value(nproc()));
    host.set("gemm_isa", json_value(gemm_isa_path()));
    host.set("build_type", json_value(PERFBENCH_BUILD_TYPE));
#ifdef REDUCE_NATIVE
    host.set("reduce_native", json_value(true));
#else
    host.set("reduce_native", json_value(false));
#endif
    return json_value(std::move(host));
}

json_value metrics_json(const metric_map& m) {
    json_object out;
    for (const auto& [name, value] : m) {
        json_object entry;
        entry.set("value", json_value(value.first));
        entry.set("unit", json_value(value.second));
        out.set(name, json_value(std::move(entry)));
    }
    return json_value(std::move(out));
}

json_value spans_json(const std::vector<perfbench::span>& spans) {
    const std::vector<double> self = perfbench::self_times_ms(spans);
    json_array out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        json_object e;
        e.set("name", json_value(spans[i].name));
        e.set("start_ms", json_value(spans[i].start_ms));
        e.set("end_ms", json_value(spans[i].end_ms));
        e.set("parent", json_value(spans[i].parent));
        e.set("run_id", json_value(static_cast<std::size_t>(spans[i].run_id)));
        e.set("self_ms", json_value(self[i]));
        out.push_back(json_value(std::move(e)));
    }
    return json_value(std::move(out));
}

/// Self time summed per span name — where a traced run's time went.
json_value self_time_by_name(const std::vector<perfbench::span>& spans) {
    const std::vector<double> self = perfbench::self_times_ms(spans);
    std::map<std::string, std::pair<double, std::size_t>> totals;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        totals[spans[i].name].first += self[i];
        ++totals[spans[i].name].second;
    }
    json_object out;
    for (const auto& [name, total] : totals) {
        json_object e;
        e.set("self_ms", json_value(total.first));
        e.set("count", json_value(total.second));
        out.set(name, json_value(std::move(e)));
    }
    return json_value(std::move(out));
}

struct run_totals {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> problems;
    std::optional<std::uint64_t> digest;

    /// Folds one repetition in; a digest that differs from the first
    /// repetition's fails every op of the repetition.
    void add(const lot_run& run) {
        attempted += run.attempted;
        failed += run.failed;
        for (const std::string& p : run.problems) { problems.push_back(p); }
        if (!digest) { digest = run.digest; }
        if (*digest != run.digest) {
            failed += run.attempted - run.failed;
            problems.push_back("output digest " + perfbench::hex64(run.digest) +
                               " differs from " + perfbench::hex64(*digest));
        }
    }
};

int run_benchmark(const cli_args& args) {
    const std::string name = args.get("workload", "");
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const double seconds = args.get_double("seconds", 10.0);
    const bool trace = args.get_int("trace", 0) != 0;
    const bool smoke = args.get_flag("smoke");
    const std::filesystem::path scratch = args.get("scratch", ".bench_build/perfbench/tmp");
    const std::string report_path = args.get("report", "");
    REDUCE_CHECK(seconds > 0.0, "--seconds must be positive");
    const lot_spec spec = spec_for(name, smoke);
    const std::filesystem::path job_dir =
        scratch / (name + "-" + std::to_string(seed) + "-" + std::to_string(::getpid()));

    // Set-up: dataset, pretraining and the lot, several times; the last
    // bundle is the one measured.
    std::vector<double> setup_s;
    std::vector<double> fleet_gen_ms;
    workload w;
    std::vector<chip> lot;
    for (std::size_t r = 0; r < spec.setup_reps; ++r) {
        stopwatch t;
        w = spec.vgg ? make_vgg_workload() : make_standard_workload();
        stopwatch tf;
        lot = make_lot(spec, w.array, mix_seed(seed, 0x107));
        fleet_gen_ms.push_back(tf.milliseconds());
        setup_s.push_back(t.seconds());
    }
    const resilience_config rc = sweep_config(spec, w);
    std::cerr << "[perfbench] " << name << " seed " << seed << ": clean accuracy "
              << w.clean_accuracy << ", " << lot.size() << " chips, set-up " << median(setup_s)
              << " s\n";

    const auto run_once = [&](std::size_t rep) {
        return spec.distributed
                   ? run_distributed(spec, w, lot, rc, job_dir / ("rep" + std::to_string(rep)))
                   : run_local(spec, w, lot, rc);
    };

    run_totals totals;
    metric_map metrics;
    json_object report;
    std::vector<lot_run> runs;
    stopwatch clock;
    // Untraced repetitions: the whole window without --trace, the first
    // half with it (the reference the traced drive must reproduce).
    const double untraced_window = trace ? seconds / 2.0 : seconds;
    do {
        runs.push_back(run_once(runs.size()));
        totals.add(runs.back());
    } while (clock.seconds() < untraced_window && !smoke);
    std::vector<double> sweep_s, fleet_s, lot_s, connect_s;
    for (const lot_run& r : runs) {
        sweep_s.push_back(r.sweep_s);
        fleet_s.push_back(r.fleet_s);
        lot_s.push_back(r.lot_s());
        connect_s.push_back(r.connect_s);
    }
    const lot_run& ref = runs.front();
    json_array rep_times;
    for (const lot_run& r : runs) {
        json_object e;
        e.set("sweep_s", json_value(r.sweep_s));
        e.set("fleet_s", json_value(r.fleet_s));
        e.set("connect_s", json_value(r.connect_s));
        rep_times.push_back(json_value(std::move(e)));
    }
    report.set("repetitions", json_value(std::move(rep_times)));

    if (!trace) {
        metrics["setup_s"] = {median(setup_s) + median(connect_s), "s"};
        metrics["sweep_s"] = {median(sweep_s), "s"};
        metrics["fleet_s"] = {median(fleet_s), "s"};
        metrics["lot_s"] = {median(lot_s), "s"};
        metrics["total_epochs"] = {ref.outcome.total_epochs(), "epochs"};
        metrics["frac_meeting"] = {ref.outcome.fraction_meeting(), "ratio"};
        metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
        // fail_frac's complement, so the metric is never zero.
        metrics["ok_frac"] = {1.0 - static_cast<double>(totals.failed) /
                                        static_cast<double>(totals.attempted),
                              "ratio"};
    } else {
        span_recorder rec;
        std::vector<traced_run> traced;
        do {
            traced.push_back(run_traced(spec, w, lot, rc, rec, traced.size()));
            lot_run& tr = traced.back().run;
            totals.add(tr);
            // Layer-driven outputs must reproduce the untraced run: same
            // digest, and (locally) the executor's own grouping counters.
            if (!spec.distributed && !(tr.counts == ref.counts)) {
                totals.problems.push_back("traced grouping counters differ from fleet_executor's");
                ++totals.failed;
            }
        } while (clock.seconds() < seconds && !smoke);

        std::vector<double> cell_ms, tune_ms, plan_ms, traced_lot_s;
        double sweep_busy = 0.0, fleet_busy = 0.0, sweep_wall = 0.0, fleet_wall = 0.0;
        for (const traced_run& t : traced) {
            cell_ms.insert(cell_ms.end(), t.cell_ms.begin(), t.cell_ms.end());
            tune_ms.insert(tune_ms.end(), t.tune_ms.begin(), t.tune_ms.end());
            plan_ms.insert(plan_ms.end(), t.plan_ms.begin(), t.plan_ms.end());
            traced_lot_s.push_back(t.run.lot_s());
            sweep_busy += t.sweep_busy_ms / static_cast<double>(t.sweep_workers);
            fleet_busy += t.fleet_busy_ms / static_cast<double>(t.fleet_workers);
            sweep_wall += t.run.sweep_s * 1e3;
            fleet_wall += t.run.fleet_s * 1e3;
        }
        // Percentiles need ten samples beyond them: top up per-unit samples
        // with the same calls on the same inputs when the lot is too small.
        {
            resilience_analyzer analyzer(*w.model, w.pretrained, w.train_data, w.test_data,
                                         w.array, w.trainer_cfg);
            const std::vector<sweep_cell> cells = enumerate_sweep_cells(rc);
            sweep_options opts;
            opts.gemm_threads = resolve_thread_budget(spec.workers, spec.gemm_threads,
                                                      cells.size()).gemm_threads;
            for (std::size_t i = 0; cell_ms.size() < 100 && !smoke; ++i) {
                stopwatch t;
                (void)analyzer.analyze_cells(rc, {cells[i % cells.size()]}, opts);
                cell_ms.push_back(t.milliseconds());
            }
            chip_tuner tuner(*w.model, w.pretrained, w.train_data, w.test_data, w.array,
                             w.trainer_cfg);
            tuner.set_scenario(rc.scenario);
            const scoped_intra_op_threads intra(
                resolve_thread_budget(spec.workers, spec.gemm_threads, lot.size()).gemm_threads);
            for (std::size_t i = 0; tune_ms.size() < 100 && !smoke; ++i) {
                const chip_outcome& c = ref.outcome.chips[i % lot.size()];
                epoch_allocation alloc;
                alloc.epochs = c.epochs_allocated;
                alloc.selection_failed = c.selection_failed;
                stopwatch t;
                (void)tuner.tune(lot[i % lot.size()], alloc, ref.outcome.accuracy_constraint,
                                 c.effective_fault_rate);
                tune_ms.push_back(t.milliseconds());
            }
        }
        const auto pct = [&](const std::vector<double>& v, double p, const char* what) {
            const std::optional<double> value = perfbench::guarded_percentile(v, p);
            if (!value && !smoke) {
                totals.problems.push_back(std::string("too few samples for ") + what);
            }
            return value.value_or(0.0);
        };
        metrics["core.sweep.cell_ms_p50"] = {pct(cell_ms, 50, "cell p50"), "ms"};
        metrics["core.sweep.cell_ms_p90"] = {pct(cell_ms, 90, "cell p90"), "ms"};
        metrics["core.sweep.cells"] = {static_cast<double>(ref.table->runs().size()), "count"};
        metrics["core.fleet.tune_ms_p50"] = {pct(tune_ms, 50, "tune p50"), "ms"};
        metrics["core.fleet.tune_ms_p90"] = {pct(tune_ms, 90, "tune p90"), "ms"};
        metrics["core.policy.plan_ms"] = {median(plan_ms), "ms"};
        const fleet_counts& c = traced.front().run.counts;
        metrics["core.fleet.grouped_chips"] = {static_cast<double>(c.grouped_chips), "count"};
        metrics["core.fleet.serial_chips"] = {static_cast<double>(c.serial_chips), "count"};
        metrics["core.fleet.alloc_downgrades"] = {static_cast<double>(c.alloc_downgrades), "count"};
        metrics["core.fleet.scenario_downgrades"] = {static_cast<double>(c.scenario_downgrades),
                                                     "count"};
        metrics["core.fleet.rollbacks"] = {static_cast<double>(c.rollbacks), "count"};
        metrics["core.fleet.wasted_epochs"] = {wasted_epochs(ref.outcome), "epochs"};
        std::size_t events = 0;
        for (const chip_outcome& co : ref.outcome.chips) { events += co.events_applied; }
        metrics["fault.timeline_events"] = {static_cast<double>(events), "count"};
        metrics["fault.fleet_gen_ms"] = {median(fleet_gen_ms), "ms"};
        metrics["util.sweep_busy_share"] = {sweep_busy / sweep_wall, "ratio"};
        metrics["util.fleet_busy_share"] = {fleet_busy / fleet_wall, "ratio"};
        metrics["trace.lot_overhead"] = {median(traced_lot_s) / median(lot_s), "ratio"};
        const dist::coordinator_stats& ss = ref.sweep_stats;
        const dist::coordinator_stats& fs = ref.fleet_stats;
        metrics["dist.leases"] = {static_cast<double>(ss.leases_granted + fs.leases_granted),
                                  "count"};
        metrics["dist.leases_reassigned"] = {
            static_cast<double>(ss.leases_reassigned + fs.leases_reassigned), "count"};
        metrics["dist.frames_rejected"] = {
            static_cast<double>(ss.frames_rejected + fs.frames_rejected), "count"};
        // Share of the distributed wall time not spent computing units: the
        // traced local drive runs the same units on the same worker count.
        double overhead = 0.0;
        if (spec.distributed) {
            const double local_unit_ms = (sweep_busy + fleet_busy) / static_cast<double>(traced.size());
            overhead = 1.0 - local_unit_ms / (median(lot_s) * 1e3);
        }
        metrics["dist.overhead_share"] = {overhead, "ratio"};

        json_array roofline;
        probe_layers_into(metrics, roofline, spec, w, lot, *ref.table, ref.outcome,
                          job_dir / "journal-probe");
        metrics["core.fat.eval_share"] = {
            static_cast<double>(ref.table->runs().front().trajectory.size()) *
                metrics["core.fat.eval_ms"].first / metrics["core.sweep.cell_ms_p50"].first,
            "ratio"};

        std::cout << "# roofline (" << name << ", peak "
                  << metrics["tensor.gemm.peak_gflops"].first << " GFLOP/s at "
                  << resolve_thread_budget(spec.workers, spec.gemm_threads, lot.size()).gemm_threads
                  << " gemm thread(s))\n";
        for (const json_value& row : roofline) {
            const json_object& r = row.as_object();
            std::cout << "#   " << r.at("layer").as_string() << ' ' << r.at("kind").as_string()
                      << ' ' << r.at("fan_in").as_int() << 'x' << r.at("fan_out").as_int()
                      << "  fwd " << r.at("fwd_gflops").as_number() << " GFLOP/s ("
                      << 100.0 * r.at("fwd_share_of_peak").as_number() << "% of peak), bwd "
                      << r.at("bwd_gflops").as_number() << " GFLOP/s\n";
        }
        const std::vector<perfbench::span> spans = rec.spans();
        report.set("roofline", json_value(std::move(roofline)));
        report.set("self_time_ms", self_time_by_name(spans));
        report.set("spans", spans_json(spans));
        json_object samples;
        samples.set("cells", json_value(cell_ms.size()));
        samples.set("tunes", json_value(tune_ms.size()));
        samples.set("traced_repetitions", json_value(traced.size()));
        report.set("percentile_samples", json_value(std::move(samples)));
        report.set("untraced_lot_s", json_value(median(lot_s)));
        report.set("traced_lot_s", json_value(median(traced_lot_s)));
    }
    std::filesystem::remove_all(job_dir);

    const bool correct = totals.problems.empty();
    for (const std::string& p : totals.problems) { std::cerr << "[perfbench] FAIL: " << p << '\n'; }
    const std::string digest = perfbench::hex64(totals.digest.value_or(0));
    std::cout << "# digest " << digest << '\n';

    if (!report_path.empty()) {
        json_object run_id;
        run_id.set("workload", json_value(name));
        run_id.set("seed", json_value(static_cast<std::size_t>(seed)));
        run_id.set("trace", json_value(trace));
        run_id.set("git_commit", json_value(args.get("git-commit", "unknown")));
        run_id.set("source_digest", json_value(args.get("source-digest", "unknown")));
        run_id.set("repetitions", json_value(runs.size()));
        report.set("host", host_facts());
        report.set("run", json_value(std::move(run_id)));
        report.set("digest", json_value(digest));
        report.set("clean_accuracy", json_value(w.clean_accuracy));
        report.set("metrics", metrics_json(metrics));
        json_array chips;
        for (const chip_outcome& c : ref.outcome.chips) {
            chips.push_back(dist::chip_outcome_to_json(c));
        }
        report.set("chips", json_value(std::move(chips)));
        json_array problems;
        for (const std::string& p : totals.problems) { problems.push_back(json_value(p)); }
        report.set("problems", json_value(std::move(problems)));
        std::filesystem::create_directories(std::filesystem::path(report_path).parent_path());
        json_save_file(report_path, json_value(std::move(report)));
    }

    json_object result;
    result.set("correct", json_value(correct));
    result.set("attempted", json_value(totals.attempted));
    result.set("failed", json_value(totals.failed));
    result.set("metrics", metrics_json(metrics));
    std::cout << json_value(std::move(result)).dump() << std::endl;
    return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        set_log_level(log_level::error);
        return run_benchmark(cli_args(argc, argv));
    } catch (const std::exception& e) {
        std::cerr << "perfbench: error: " << e.what() << '\n';
        return 1;
    }
}
