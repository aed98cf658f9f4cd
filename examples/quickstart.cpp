// Quickstart: the whole Reduce story on one chip.
//
//  1. Pre-train a DNN on the standard synthetic workload.
//  2. Fabricate a faulty chip (random permanent faults in the 256x256 PE
//     array) and apply FAP — accuracy drops.
//  3. Run Step 1 (resilience analysis) on a coarse grid.
//  4. Run Step 2 (select the retraining amount for this chip).
//  5. Run Step 3 (FAT for exactly that amount) — accuracy recovers to the
//     constraint without paying for full retraining.
//
// Usage: quickstart [--fault-rate 0.15] [--constraint 0.91] [--seed 7]

#include <iostream>

#include "core/resilience.h"
#include "core/selector.h"
#include "core/workload.h"
#include "fault/mask_builder.h"
#include "util/cli.h"
#include "util/log.h"
#include "util/stopwatch.h"

using namespace reduce;

int main(int argc, char** argv) {
    try {
        const cli_args args(argc, argv);
        const double fault_rate = args.get_double("fault-rate", 0.15);
        const double constraint = args.get_double("constraint", 0.91);
        const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
        args.reject_unread_options();
        set_log_level(log_level::warn);

        std::cout << "== Reduce quickstart ==\n";
        stopwatch timer;

        // 1. Pre-trained DNN + dataset (the framework's first two inputs).
        workload w = make_standard_workload();
        std::cout << "pre-trained model: " << w.clean_accuracy * 100.0
                  << "% clean test accuracy (" << timer.seconds() << " s)\n";

        // 2. One faulty chip, FAP applied.
        random_fault_config fault_cfg;
        fault_cfg.fault_rate = fault_rate;
        const fault_grid faults = generate_random_faults(w.array, fault_cfg, seed);
        restore_parameters(w.model->parameters(), w.pretrained);
        const mask_stats stats = attach_fault_masks(*w.model, w.array, faults);
        fault_aware_trainer trainer(*w.model, w.train_data, w.test_data, w.trainer_cfg);
        std::cout << "chip fault rate " << fault_rate << " -> " << stats.masked_fraction() * 100.0
                  << "% of weights pruned, accuracy " << trainer.evaluate() * 100.0 << "%\n";
        clear_fault_masks(*w.model);

        // 3. Step 1: resilience analysis (coarse grid for the demo).
        resilience_analyzer analyzer(*w.model, w.pretrained, w.train_data, w.test_data,
                                     w.array, w.trainer_cfg);
        resilience_config res_cfg;
        res_cfg.fault_rates = {0.0, 0.1, 0.2, 0.3};
        res_cfg.repeats = 3;
        res_cfg.max_epochs = 6.0;
        const resilience_table table = analyzer.analyze(res_cfg);
        std::cout << "resilience analysis done (" << timer.seconds() << " s total)\n";

        // 4. Step 2: amount selection for this chip.
        selector_config sel_cfg;
        sel_cfg.accuracy_target = constraint;
        sel_cfg.stat = statistic::max;
        retraining_selector selector(table, sel_cfg);
        const selection sel = selector.select(*w.model, w.array, faults);
        if (!sel.epochs.has_value()) {
            std::cout << "constraint " << constraint
                      << " is unreachable at this fault rate; increase the budget\n";
            return 0;
        }
        std::cout << "selected retraining amount: " << *sel.epochs << " epochs (effective rate "
                  << sel.effective_fault_rate << ")\n";

        // 5. Step 3: FAT for exactly the selected amount.
        restore_parameters(w.model->parameters(), w.pretrained);
        attach_fault_masks(*w.model, w.array, faults);
        const fat_result fat = trainer.train(*sel.epochs);
        std::cout << "after " << fat.epochs_run << " epochs of FAT: " << fat.final_accuracy * 100.0
                  << "% (constraint " << constraint * 100.0 << "%, "
                  << (fat.final_accuracy >= constraint ? "met" : "MISSED") << ")\n";
        std::cout << "total wall time: " << timer.seconds() << " s\n";
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
