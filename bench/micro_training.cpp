// micro_training — training-substrate micro-benchmark and the
// parallel-vs-serial correctness gate for the intra-op tensor backend.
//
// Times the per-step costs the fleet-level retraining budgets are built
// from (forward, train step, masked train step, full evaluation) per
// workload: with serial tensor kernels (--gemm-threads 1) and on the
// intra-op thread budget under test. Every parallel result must equal its
// serial counterpart BIT FOR BIT — logits, snapshots, and accuracies are
// memcmp'd — and the process exits non-zero on any mismatch and NEVER on
// timing, so CI can gate on correctness without flaking on noise. Emits
// BENCH_train.json (schema 6: per-op cases carry serial_ms / parallel_ms;
// `regressions` names every row whose intra-op budget measured slower than
// serial, as information only) — the train-path perf artifact reported
// next to BENCH_gemm.json / BENCH_eval.json.
//
// Workloads: "mlp" (the standard experiment scale — too small to gain from
// intra-op threads, included to pin the no-regression floor) and "vgg"
// (VGG11 at width 0.25 on 16x16 synthetic images, batch 64 — the
// single-chip retraining shape the intra-op backend exists for).
//
// Speedups are bounded by the machine: on an N-core host expect ≈min(N,
// --gemm-threads)x on the VGG GEMM-bound rows; on a single-core container
// the rows still verify bitwise but report ≈1x (the JSON carries
// hardware_concurrency so consumers can tell the two apart).
//
// Options:
//   --out PATH        JSON output path              (default BENCH_train.json)
//   --gemm-threads N  intra-op budget under test    (default 8)
//   --min-ms X        min measured ms per sample    (default 200)
//   --samples N       timing samples (best-of)      (default 3)
//   --steps N         train steps per verification  (default 3)

#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/fat_trainer.h"
#include "core/workload.h"
#include "data/loader.h"
#include "data/synthetic.h"
#include "fault/mask_builder.h"
#include "fault/models.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "nn/optim.h"
#include "nn/serialize.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

using namespace reduce;

namespace {

struct train_workload {
    std::string name;
    std::unique_ptr<sequential> model;
    model_snapshot pretrained;
    dataset train_data;
    dataset test_data;
    array_config array;
    fat_config trainer_cfg;
    std::optional<fault_grid> faults;  ///< mask set for the masked-step row
};

train_workload make_mlp_workload() {
    train_workload w;
    w.name = "mlp";
    workload std_w = make_standard_workload();
    w.model = std::move(std_w.model);
    w.pretrained = std::move(std_w.pretrained);
    w.train_data = std::move(std_w.train_data);
    w.test_data = std::move(std_w.test_data);
    w.array = std_w.array;
    w.trainer_cfg = std_w.trainer_cfg;
    random_fault_config fc;
    fc.fault_rate = 0.15;
    w.faults = generate_random_faults(w.array, fc, 3);
    return w;
}

train_workload make_vgg_workload() {
    train_workload w;
    w.name = "vgg";
    synthetic_images_config data_cfg;
    data_cfg.shape = {3, 16, 16};
    data_cfg.num_classes = 4;
    data_cfg.samples_per_class = 150;
    data_cfg.noise_stddev = 0.35;
    const dataset full = make_synthetic_images(data_cfg);
    dataset_split split = split_dataset(full, 0.75, 1);
    w.train_data = std::move(split.train);
    w.test_data = std::move(split.test);
    vgg11_config model_cfg;
    model_cfg.input = data_cfg.shape;
    model_cfg.num_classes = data_cfg.num_classes;
    model_cfg.width_multiplier = 0.25;
    rng gen(2);
    w.model = make_vgg11(model_cfg, gen);
    // Per-step cost is shape-dependent, not value-dependent: the random
    // initialization stands in for a pretrained snapshot without paying for
    // conv pretraining in a micro-bench.
    w.pretrained = snapshot_parameters(w.model->parameters());
    w.array.rows = 64;
    w.array.cols = 64;
    w.trainer_cfg.batch_size = 64;
    random_fault_config fc;
    fc.fault_rate = 0.15;
    w.faults = generate_random_faults(w.array, fc, 3);
    return w;
}

/// Runs `steps` deterministic SGD steps from the pretrained snapshot and
/// returns the resulting parameter snapshot. Pure function of (workload,
/// masked, steps) — the intra-op budget in force must never change a bit of
/// the result, which is exactly what the caller asserts.
model_snapshot run_train_steps(train_workload& w, bool masked, std::size_t steps) {
    restore_parameters(w.model->parameters(), w.pretrained);
    reseed_stochastic_layers(*w.model, 1234);
    if (masked) { attach_fault_masks(*w.model, w.array, *w.faults); }
    data_loader loader(w.train_data, w.trainer_cfg.batch_size, 2);
    sgd opt(w.model->parameters(),
            {.learning_rate = w.trainer_cfg.learning_rate,
             .momentum = w.trainer_cfg.momentum});
    w.model->set_training(true);
    for (std::size_t s = 0; s < steps; ++s) {
        const batch b = loader.next_batch();
        const loss_result loss = cross_entropy_loss(w.model->forward(b.features), b.labels);
        opt.zero_grad();
        w.model->backward(loss.grad);
        opt.step();
    }
    model_snapshot result = snapshot_parameters(w.model->parameters());
    if (masked) { clear_fault_masks(*w.model); }
    restore_parameters(w.model->parameters(), w.pretrained);
    return result;
}

bool same_snapshot(const model_snapshot& a, const model_snapshot& b) {
    if (a.size() != b.size() || a.state.size() != b.state.size()) { return false; }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a.values[i].shape() != b.values[i].shape()) { return false; }
        if (std::memcmp(a.values[i].raw(), b.values[i].raw(),
                        a.values[i].numel() * sizeof(float)) != 0) {
            return false;
        }
    }
    for (std::size_t i = 0; i < a.state.size(); ++i) {
        if (a.state[i].shape() != b.state[i].shape()) { return false; }
        if (std::memcmp(a.state[i].raw(), b.state[i].raw(),
                        a.state[i].numel() * sizeof(float)) != 0) {
            return false;
        }
    }
    return true;
}

template <typename Fn>
double best_ms_per_call(Fn&& fn, double min_ms, std::size_t samples) {
    fn();  // warm caches and the workspace arenas
    std::size_t reps = 1;
    for (;;) {
        stopwatch t;
        for (std::size_t r = 0; r < reps; ++r) { fn(); }
        const double ms = t.milliseconds();
        if (ms >= min_ms || reps > (1u << 20)) { break; }
        const double grow = ms > 0.0 ? std::min(10.0, 1.25 * min_ms / ms) : 10.0;
        reps = std::max(reps + 1, static_cast<std::size_t>(static_cast<double>(reps) * grow));
    }
    double best = 1e300;
    for (std::size_t s = 0; s < samples; ++s) {
        stopwatch t;
        for (std::size_t r = 0; r < reps; ++r) { fn(); }
        best = std::min(best, t.milliseconds() / static_cast<double>(reps));
    }
    return best;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const cli_args args(argc, argv);
        set_log_level(log_level::warn);
        const std::string out_path = args.get("out", "BENCH_train.json");
        const std::size_t gemm_threads =
            resolve_thread_count(static_cast<std::size_t>(args.get_int("gemm-threads", 8)));
        const double min_ms = args.get_double("min-ms", 200.0);
        const std::size_t samples = static_cast<std::size_t>(args.get_int("samples", 3));
        const std::size_t steps = static_cast<std::size_t>(args.get_int("steps", 3));

        bool all_ok = true;
        double vgg_train_step_speedup = 0.0;
        json_array case_json;
        // Rows whose fast path lost to its reference. Reported, never fatal:
        // timing noise must not fail the run.
        json_array regressions;
        const auto note_regression = [&](const std::string& row, double speedup) {
            if (speedup >= 1.0) { return; }
            std::cout << "regression: " << row << " fast path at " << speedup
                      << "x of its reference\n";
            json_object entry;
            entry.set("row", json_value(row));
            entry.set("speedup", json_value(speedup));
            regressions.push_back(json_value(std::move(entry)));
        };

        std::vector<train_workload> workloads;
        workloads.push_back(make_mlp_workload());
        workloads.push_back(make_vgg_workload());

        for (train_workload& w : workloads) {
            fault_aware_trainer trainer(*w.model, w.train_data, w.test_data, w.trainer_cfg);
            data_loader fwd_loader(w.train_data, w.trainer_cfg.batch_size, 1);
            const batch fwd_batch = fwd_loader.next_batch();

            struct row {
                const char* op;
                std::function<void()> run;       ///< the timed body
                std::function<bool()> verify;    ///< serial-vs-parallel bitwise gate
                double items;                    ///< per call, for items/s
            };
            const double bs = static_cast<double>(w.trainer_cfg.batch_size);
            std::vector<row> rows;
            rows.push_back({"forward",
                            [&] {
                                w.model->set_training(false);
                                (void)w.model->forward(fwd_batch.features);
                            },
                            [&] {
                                w.model->set_training(false);
                                set_intra_op_threads(1);
                                const tensor serial = w.model->forward(fwd_batch.features);
                                set_intra_op_threads(gemm_threads);
                                const tensor parallel = w.model->forward(fwd_batch.features);
                                return serial.shape() == parallel.shape() &&
                                       std::memcmp(serial.raw(), parallel.raw(),
                                                   serial.numel() * sizeof(float)) == 0;
                            },
                            bs});
            rows.push_back({"train_step",
                            [&] { (void)run_train_steps(w, /*masked=*/false, 1); },
                            [&] {
                                set_intra_op_threads(1);
                                const model_snapshot serial =
                                    run_train_steps(w, false, steps);
                                set_intra_op_threads(gemm_threads);
                                const model_snapshot parallel =
                                    run_train_steps(w, false, steps);
                                return same_snapshot(serial, parallel);
                            },
                            bs});
            rows.push_back({"masked_step",
                            [&] { (void)run_train_steps(w, /*masked=*/true, 1); },
                            [&] {
                                set_intra_op_threads(1);
                                const model_snapshot serial =
                                    run_train_steps(w, true, steps);
                                set_intra_op_threads(gemm_threads);
                                const model_snapshot parallel =
                                    run_train_steps(w, true, steps);
                                return same_snapshot(serial, parallel);
                            },
                            bs});
            rows.push_back({"eval",
                            [&] { (void)trainer.evaluate(); },
                            [&] {
                                restore_parameters(w.model->parameters(), w.pretrained);
                                set_intra_op_threads(1);
                                const double serial = trainer.evaluate();
                                set_intra_op_threads(gemm_threads);
                                const double parallel = trainer.evaluate();
                                return std::memcmp(&serial, &parallel, sizeof serial) == 0;
                            },
                            static_cast<double>(w.test_data.size())});

            for (row& r : rows) {
                // Correctness gate first: bit-identical at both budgets.
                const bool ok = r.verify();
                all_ok = all_ok && ok;

                set_intra_op_threads(1);
                const double serial_ms = best_ms_per_call(r.run, min_ms, samples);
                set_intra_op_threads(gemm_threads);
                const double parallel_ms = best_ms_per_call(r.run, min_ms, samples);
                set_intra_op_threads(1);
                const double speedup = serial_ms / parallel_ms;
                note_regression(w.name + ' ' + r.op, speedup);
                if (w.name == "vgg" && std::string(r.op) == "train_step") {
                    vgg_train_step_speedup = speedup;
                }

                std::cout << w.name << ' ' << r.op << "  1t " << serial_ms << " ms, "
                          << gemm_threads << "t " << parallel_ms << " ms  → " << speedup
                          << "x  (" << r.items / (parallel_ms / 1000.0) << " items/s"
                          << (ok ? ")" : ")  *** MISMATCH ***") << '\n';

                json_object entry;
                entry.set("workload", json_value(w.name));
                entry.set("op", json_value(std::string(r.op)));
                entry.set("serial_ms", json_value(serial_ms));
                entry.set("parallel_ms", json_value(parallel_ms));
                entry.set("gemm_threads", json_value(gemm_threads));
                entry.set("speedup", json_value(speedup));
                entry.set("items_per_s", json_value(r.items / (parallel_ms / 1000.0)));
                entry.set("verified", json_value(ok));
                case_json.push_back(json_value(std::move(entry)));
            }
        }

        json_object root;
        root.set("bench", json_value("micro_training"));
        root.set("schema_version", json_value(6));
#ifdef REDUCE_NATIVE
        root.set("march_native", json_value(true));
#else
        root.set("march_native", json_value(false));
#endif
        root.set("hardware_concurrency",
                 json_value(static_cast<std::size_t>(std::thread::hardware_concurrency())));
        root.set("gemm_threads", json_value(gemm_threads));
        root.set("min_ms_per_sample", json_value(min_ms));
        root.set("samples", json_value(samples));
        root.set("verify_steps", json_value(steps));
        root.set("vgg_train_step_speedup", json_value(vgg_train_step_speedup));
        root.set("cases", json_value(std::move(case_json)));
        root.set("regressions", json_value(std::move(regressions)));
        json_save_file(out_path, json_value(std::move(root)));
        std::cout << "wrote " << out_path << " (vgg train-step speedup "
                  << vgg_train_step_speedup << "x at " << gemm_threads << " threads)\n";

        if (!all_ok) {
            std::cerr << "error: a parallel result mismatched its serial reference\n";
            return 1;
        }
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
