// Ablation — does the spatial structure of defects matter?
//
// The paper (like Zhang et al.) uses a uniform random fault model. Real
// manufacturing defects cluster. This ablation re-runs the resilience
// analysis under a clustered fault model at the same fault rates and
// compares (a) the accuracy drop before retraining and (b) the epochs
// needed to recover, plus the FAM advantage (clustered column damage gives
// saliency-driven mapping more healthy columns to exploit).
//
// A third, line-structured model (whole PE rows/columns fail at once — a
// broken word/bit line or clock spine) joins the comparison: line damage
// wipes entire mapping columns, the worst case for FAP masking.
//
// Output: CSV (model, fault_rate, acc_no_retrain, epochs_to_target_max).
// Options: --rates ... (default 0.1,0.2,0.3), --target 91, --repeats 3,
//          --clusters 4, --spread 2.0, --row-fraction 0.5,
//          --models uniform,clustered,line.

#include <iostream>

#include "core/resilience.h"
#include "core/workload.h"
#include "fault/mask_builder.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace reduce;

int main(int argc, char** argv) {
    try {
        const cli_args args(argc, argv);
        set_log_level(args.get_flag("verbose") ? log_level::info : log_level::warn);
        stopwatch timer;

        const std::vector<double> rates = args.get_double_list("rates", {0.1, 0.2, 0.3});
        const double target = args.get_double("target", 91.0) / 100.0;
        const std::size_t repeats = static_cast<std::size_t>(args.get_int("repeats", 3));
        const std::size_t clusters = static_cast<std::size_t>(args.get_int("clusters", 4));
        const double spread = args.get_double("spread", 2.0);
        const double row_fraction = args.get_double("row-fraction", 0.5);
        const double budget = args.get_double("budget", 5.0);
        const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 31337));
        const std::vector<std::string> models =
            args.get_string_list("models", {"uniform", "clustered", "line"});
        args.reject_unread_options();

        workload w = make_standard_workload();
        std::cerr << "[fault-model] clean accuracy " << w.clean_accuracy * 100.0 << "%\n";

        fault_aware_trainer trainer(*w.model, w.train_data, w.test_data, w.trainer_cfg);
        const std::vector<double> eval_grid = make_eval_grid(budget, 1.0, 0.05, 0.5);

        csv_table out({"fault_model", "fault_rate", "acc_no_retrain_mean",
                       "epochs_to_target_max", "censored"});
        out.set_precision(4);

        // Per-model seed offsets keep historical maps stable: "uniform" and
        // "clustered" reproduce the exact maps of the original two-model
        // ablation, "line" gets its own stream.
        const auto model_offset = [](const std::string& name) -> std::uint64_t {
            if (name == "uniform") { return 0; }
            if (name == "clustered") { return 500; }
            if (name == "line") { return 1000; }
            throw invalid_argument_error("unknown fault model '" + name +
                                         "' (uniform|clustered|line)");
        };
        for (const std::string& model_name : models) {
            const std::uint64_t offset = model_offset(model_name);
            for (std::size_t rate_idx = 0; rate_idx < rates.size(); ++rate_idx) {
                const double rate = rates[rate_idx];
                std::vector<double> accs;
                std::vector<double> epochs;
                std::size_t censored = 0;
                for (std::size_t rep = 0; rep < repeats; ++rep) {
                    const std::uint64_t map_seed =
                        mix_seed(seed, offset + rate_idx * 10 + rep);
                    fault_grid faults(w.array.rows, w.array.cols);
                    if (model_name == "clustered") {
                        clustered_fault_config cc;
                        cc.fault_rate = rate;
                        cc.cluster_count = clusters;
                        cc.spread = spread;
                        faults = generate_clustered_faults(w.array, cc, map_seed);
                    } else if (model_name == "line") {
                        line_fault_config lc;
                        lc.fault_rate = rate;
                        lc.row_fraction = row_fraction;
                        faults = generate_line_faults(w.array, lc, map_seed);
                    } else {
                        random_fault_config rc;
                        rc.fault_rate = rate;
                        faults = generate_random_faults(w.array, rc, map_seed);
                    }
                    restore_parameters(w.model->parameters(), w.pretrained);
                    attach_fault_masks(*w.model, w.array, faults);
                    const fat_result result = trainer.train(budget, eval_grid);
                    accs.push_back(result.trajectory.front().test_accuracy);
                    const auto needed = epochs_to_reach(result.trajectory, target);
                    if (needed.has_value()) {
                        epochs.push_back(*needed);
                    } else {
                        epochs.push_back(budget);
                        ++censored;
                    }
                    clear_fault_masks(*w.model);
                }
                const summary_stats acc_stats = summarize(accs);
                const summary_stats epoch_stats = summarize(epochs);
                out.add_row({model_name, rate, acc_stats.mean * 100.0, epoch_stats.max,
                             static_cast<long long>(censored)});
                std::cerr << "[fault-model] " << model_name << " rate " << rate
                          << " done (" << timer.seconds() << " s)\n";
            }
        }
        restore_parameters(w.model->parameters(), w.pretrained);

        std::cout << "# Fault-model ablation: uniform vs clustered vs line defects, target "
                  << target * 100.0 << "%\n";
        out.write(std::cout);
        std::cerr << "[fault-model] done in " << timer.seconds() << " s\n";
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
