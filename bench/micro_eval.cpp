// micro_eval — multi-mask evaluation micro-benchmark and
// serial-vs-batched correctness gate.
//
// Times the fleet's accuracy_before hot path two ways over the same chips:
//   serial  — per chip: restore the pretrained snapshot, attach this chip's
//             fault masks, evaluate the full test set, tear down, and
//   grouped — one multi_mask_evaluator::evaluate call per block of K chips:
//             each chip's masked weights are written in turn into the
//             evaluator's one inference clone, which runs through
//             evaluate_model (no restore, no mask tensors, no teardown).
// Every grouped accuracy must equal its serial counterpart BIT FOR BIT; the
// process exits non-zero on any mismatch and never on timing, so CI can
// gate on correctness without flaking on noise. Emits BENCH_eval.json —
// the multi-mask eval perf artifact reported next to BENCH_gemm.json.
//
// Workloads: "mlp" (the standard experiment scale) and "vgg" (VGG11 on 8x8
// synthetic images at vgg_pipeline's width/array), each swept over
// K ∈ {1, 2, 8, 32} grouped chips.
//
// Options:
//   --out PATH     JSON output path              (default BENCH_eval.json)
//   --min-ms X     min measured ms per sample    (default 200)
//   --samples N    timing samples (best-of)      (default 3)
//   --chips N      fleet size per workload       (default 32)

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/fat_trainer.h"
#include "core/multi_mask_eval.h"
#include "data/synthetic.h"
#include "fault/chip.h"
#include "fault/mask_builder.h"
#include "nn/models.h"
#include "nn/serialize.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace reduce;

namespace {

struct eval_workload {
    std::string name;
    std::unique_ptr<sequential> model;
    model_snapshot pretrained;
    dataset train_data;
    dataset test_data;
    array_config array;
    fat_config trainer_cfg;
    std::vector<chip> chips;
};

eval_workload make_mlp_workload(std::size_t num_chips) {
    eval_workload w;
    w.name = "mlp";
    gaussian_mixture_config data_cfg;  // the standard experiment geometry
    const dataset full = make_gaussian_mixture(data_cfg);
    dataset_split split = split_dataset(full, 0.7, 1);
    w.train_data = std::move(split.train);
    w.test_data = std::move(split.test);
    rng gen(11);
    w.model = make_mlp({data_cfg.dim, 64, 64, data_cfg.num_classes}, gen);
    w.pretrained = snapshot_parameters(w.model->parameters());
    w.array.rows = 256;
    w.array.cols = 256;
    w.trainer_cfg.batch_size = 64;
    fleet_config fc;
    fc.num_chips = num_chips;
    fc.rate_lo = 0.03;
    fc.rate_hi = 0.25;
    fc.seed = 2024;
    w.chips = make_fleet(w.array, fc);
    return w;
}

eval_workload make_vgg_workload(std::size_t num_chips) {
    eval_workload w;
    w.name = "vgg";
    synthetic_images_config data_cfg;  // vgg_pipeline's dataset
    data_cfg.shape = {3, 8, 8};
    data_cfg.num_classes = 4;
    data_cfg.samples_per_class = 100;
    data_cfg.noise_stddev = 0.35;
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
    w.pretrained = snapshot_parameters(w.model->parameters());
    w.array.rows = 64;
    w.array.cols = 64;
    w.trainer_cfg.batch_size = 32;
    fleet_config fc;
    fc.num_chips = num_chips;
    fc.rate_lo = 0.05;
    fc.rate_hi = 0.25;
    fc.seed = 7;
    w.chips = make_fleet(w.array, fc);
    return w;
}

/// The per-chip path: restore, mask, and evaluate one chip at a time.
std::vector<double> serial_accuracies(eval_workload& w) {
    std::vector<double> accs;
    accs.reserve(w.chips.size());
    for (const chip& c : w.chips) {
        restore_parameters(w.model->parameters(), w.pretrained);
        fault_state_guard guard(*w.model, w.pretrained);
        attach_fault_masks(*w.model, w.array, c.faults);
        fault_aware_trainer trainer(*w.model, w.train_data, w.test_data, w.trainer_cfg);
        accs.push_back(trainer.evaluate());
    }
    return accs;
}

/// The grouped path: blocks of `group` chips per evaluator pass.
std::vector<double> grouped_accuracies(eval_workload& w, multi_mask_evaluator& evaluator,
                                       std::size_t group) {
    std::vector<double> accs;
    accs.reserve(w.chips.size());
    for (std::size_t begin = 0; begin < w.chips.size(); begin += group) {
        const std::size_t end = std::min(w.chips.size(), begin + group);
        std::vector<const fault_grid*> grids;
        grids.reserve(end - begin);
        for (std::size_t i = begin; i < end; ++i) { grids.push_back(&w.chips[i].faults); }
        const std::vector<double> block = evaluator.evaluate(grids);
        accs.insert(accs.end(), block.begin(), block.end());
    }
    return accs;
}

template <typename Fn>
double best_ms_per_call(Fn&& fn, double min_ms, std::size_t samples) {
    fn();  // warm caches and the workspace arena
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
        const std::string out_path = args.get("out", "BENCH_eval.json");
        const double min_ms = args.get_double("min-ms", 200.0);
        const std::size_t samples = static_cast<std::size_t>(args.get_int("samples", 3));
        const std::size_t num_chips = static_cast<std::size_t>(args.get_int("chips", 32));

        bool all_ok = true;
        double vgg_k8_speedup = 0.0;
        json_array case_json;

        std::vector<eval_workload> workloads;
        workloads.push_back(make_mlp_workload(num_chips));
        workloads.push_back(make_vgg_workload(num_chips));

        for (eval_workload& w : workloads) {
            const std::vector<double> serial = serial_accuracies(w);
            multi_mask_evaluator evaluator(*w.model, w.pretrained, w.test_data, w.array,
                                           w.trainer_cfg);
            const double serial_ms =
                best_ms_per_call([&] { (void)serial_accuracies(w); }, min_ms, samples) /
                static_cast<double>(w.chips.size());

            for (const std::size_t group : {1u, 2u, 8u, 32u}) {
                if (group > w.chips.size()) { continue; }
                // Correctness gate first: byte-identical per chip.
                const std::vector<double> grouped =
                    grouped_accuracies(w, evaluator, group);
                bool ok = grouped.size() == serial.size();
                for (std::size_t i = 0; ok && i < serial.size(); ++i) {
                    ok = serial[i] == grouped[i];
                }
                all_ok = all_ok && ok;

                const double grouped_ms =
                    best_ms_per_call([&] { (void)grouped_accuracies(w, evaluator, group); },
                                     min_ms, samples) /
                    static_cast<double>(w.chips.size());
                const double speedup = serial_ms / grouped_ms;
                if (w.name == "vgg" && group == 8) { vgg_k8_speedup = speedup; }

                std::cout << w.name << " K=" << group << "  serial " << serial_ms
                          << " ms/chip, grouped " << grouped_ms << " ms/chip  → " << speedup
                          << "x" << (ok ? "" : "  *** MISMATCH ***") << '\n';

                json_object entry;
                entry.set("workload", json_value(w.name));
                entry.set("group_chips", json_value(group));
                entry.set("chips", json_value(w.chips.size()));
                entry.set("test_samples", json_value(w.test_data.size()));
                entry.set("serial_ms_per_chip", json_value(serial_ms));
                entry.set("grouped_ms_per_chip", json_value(grouped_ms));
                entry.set("speedup", json_value(speedup));
                entry.set("verified", json_value(ok));
                case_json.push_back(json_value(std::move(entry)));
            }
        }

        json_object root;
        root.set("bench", json_value("micro_eval"));
        root.set("schema_version", json_value(1));
#ifdef REDUCE_NATIVE
        root.set("march_native", json_value(true));
#else
        root.set("march_native", json_value(false));
#endif
        root.set("min_ms_per_sample", json_value(min_ms));
        root.set("samples", json_value(samples));
        root.set("vgg_k8_speedup", json_value(vgg_k8_speedup));
        root.set("cases", json_value(std::move(case_json)));
        json_save_file(out_path, json_value(std::move(root)));
        std::cout << "wrote " << out_path << " (vgg K=8 speedup " << vgg_k8_speedup
                  << "x)\n";

        if (!all_ok) {
            std::cerr << "error: grouped evaluation mismatched the serial path\n";
            return 1;
        }
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
