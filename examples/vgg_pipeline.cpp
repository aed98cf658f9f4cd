// Example: the paper's architecture — VGG11 — through the full Reduce
// pipeline on the synthetic image task.
//
// The experiment harnesses default to a fast MLP so that hundreds of
// retraining runs fit a CPU budget; this example demonstrates that nothing
// in the framework is MLP-specific by running a width-scaled VGG11
// (configuration "A": 8 conv layers + classifier) end to end: pretrain,
// fabricate a faulty chip, resilience-analyze, select, retrain.
//
// Usage: vgg_pipeline [--width 0.125] [--fault-rate 0.15]
//          [--constraint 0.85] [--pretrain-epochs 15]
//          [--sweep-threads N] [--cache-dir P]
//
// Step 1 dominates this example's wall time (conv retraining × grid ×
// repeats), so it runs on the parallel sweep engine and, with --cache-dir,
// reuses the table across invocations — the paper's amortization story.

#include <iostream>
#include <sstream>

#include "core/resilience.h"
#include "core/selector.h"
#include "core/workload.h"
#include "data/synthetic.h"
#include "fault/mask_builder.h"
#include "util/cli.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace reduce;

int main(int argc, char** argv) {
    try {
        const cli_args args(argc, argv);
        set_log_level(log_level::warn);
        stopwatch timer;

        const double width = args.get_double("width", 0.125);
        const double fault_rate = args.get_double("fault-rate", 0.15);
        const double constraint = args.get_double("constraint", 0.85);
        const double pretrain_epochs = args.get_double("pretrain-epochs", 15.0);
        sweep_options sweep;
        sweep.threads = static_cast<std::size_t>(args.get_int("sweep-threads", 0));
        const std::string cache_dir = args.get("cache-dir", "");
        args.reject_unread_options();

        std::cout << "== VGG11 through the Reduce pipeline ==\n";

        // Dataset: synthetic images standing in for CIFAR-10.
        synthetic_images_config data_cfg;
        data_cfg.shape = {3, 8, 8};
        data_cfg.num_classes = 4;
        data_cfg.samples_per_class = 100;
        data_cfg.noise_stddev = 0.35;
        const dataset full = make_synthetic_images(data_cfg);
        dataset_split split = split_dataset(full, 0.75, 1);

        // The paper's architecture, width-scaled for CPU budgets.
        vgg11_config model_cfg;
        model_cfg.input = data_cfg.shape;
        model_cfg.num_classes = data_cfg.num_classes;
        model_cfg.width_multiplier = width;
        rng gen(2);
        auto model = make_vgg11(model_cfg, gen);
        std::cout << "VGG11 (width x" << width << "): "
                  << parameter_count(model->parameters()) << " parameters, "
                  << collect_mapped_layers(*model).size() << " accelerator-mapped layers\n";

        fat_config trainer_cfg;
        trainer_cfg.batch_size = 32;
        trainer_cfg.learning_rate = 0.05;
        fault_aware_trainer trainer(*model, split.train, split.test, trainer_cfg);
        const fat_result pretrain = trainer.train(pretrain_epochs);
        const model_snapshot pretrained = snapshot_parameters(model->parameters());
        std::cout << "pretrained to " << pretrain.final_accuracy * 100.0 << "% in "
                  << timer.seconds() << " s\n";

        // One faulty 64x64 chip.
        array_config array;
        array.rows = 64;
        array.cols = 64;
        random_fault_config fc;
        fc.fault_rate = fault_rate;
        const fault_grid faults = generate_random_faults(array, fc, 3);
        const mask_stats stats = attach_fault_masks(*model, array, faults);
        std::cout << "chip at fault rate " << fault_rate << ": "
                  << stats.masked_fraction() * 100.0 << "% of weights pruned, accuracy "
                  << trainer.evaluate() * 100.0 << "%\n";
        clear_fault_masks(*model);

        // Steps 1-3 on a coarse grid (the expensive part for conv models).
        resilience_analyzer analyzer(*model, pretrained, split.train, split.test, array,
                                     trainer_cfg);
        resilience_config rc;
        rc.fault_rates = {0.0, 0.15, 0.3};
        rc.repeats = 2;
        rc.max_epochs = 3.0;
        // The context names what the config cannot see: the architecture,
        // its width, the dataset geometry, how long the snapshot every run
        // starts from was pretrained, the trainer, and the chip geometry.
        {
            std::ostringstream context;
            context << "vgg11-w" << width << "|img8x8x3-c4|pe" << pretrain_epochs << "|bs"
                    << trainer_cfg.batch_size << "-lr" << trainer_cfg.learning_rate << "-m"
                    << trainer_cfg.momentum << "|arr" << array.rows << 'x' << array.cols;
            rc.context = context.str();
        }
        const resilience_table table = [&] {
            if (!cache_dir.empty()) {
                // Inlines analyze_cached so the narrative reflects what
                // actually happened (a corrupt entry is a miss, not a hit).
                const resilience_cache cache(cache_dir);
                if (std::optional<resilience_table> cached = cache.load(rc)) {
                    std::cout << "Step-1 cache hit: reused " << cache.path_for(rc) << '\n';
                    return std::move(*cached);
                }
                resilience_table result = analyzer.analyze(rc, sweep);
                cache.store(result, rc);
                std::cout << "Step-1 cache miss: stored " << cache.path_for(rc) << '\n';
                return result;
            }
            return analyzer.analyze(rc, sweep);
        }();
        std::cout << "resilience analysis done (" << timer.seconds() << " s total)\n";

        selector_config sel;
        sel.accuracy_target = constraint;
        sel.stat = statistic::max;
        const retraining_selector selector(table, sel);
        const selection choice = selector.select(*model, array, faults);
        if (!choice.epochs.has_value()) {
            std::cout << "constraint unreachable within the budget on this chip\n";
            return 0;
        }
        std::cout << "selected " << *choice.epochs << " epochs for effective rate "
                  << choice.effective_fault_rate << '\n';

        restore_parameters(model->parameters(), pretrained);
        attach_fault_masks(*model, array, faults);
        const fat_result fat = trainer.train(*choice.epochs);
        std::cout << "after FAT: " << fat.final_accuracy * 100.0 << "% (constraint "
                  << constraint * 100.0 << "%, "
                  << (fat.final_accuracy >= constraint ? "met" : "MISSED") << ")\n"
                  << "total wall time: " << timer.seconds() << " s\n";
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
