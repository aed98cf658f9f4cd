// Example: Fault-Aware Mapping (SalvageDNN) as a training-free baseline.
//
// Shows how saliency-driven column permutation routes important weights
// away from faulty PEs: per layer, the |w| pruned under the identity
// mapping vs the FAM assignment, and the end accuracy of FAP vs FAM vs a
// short FAT run on the same chip.
//
// Usage: fam_mapping_demo [--fault-rate 0.15] [--seed 5] [--fat-epochs 1]

#include <iostream>

#include "core/fat_trainer.h"
#include "core/workload.h"
#include "fault/fam.h"
#include "fault/mask_builder.h"
#include "fault/models.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/log.h"

using namespace reduce;

int main(int argc, char** argv) {
    try {
        const cli_args args(argc, argv);
        set_log_level(log_level::warn);
        const double fault_rate = args.get_double("fault-rate", 0.15);
        const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 5));
        const double fat_epochs = args.get_double("fat-epochs", 1.0);
        args.reject_unread_options();

        std::cout << "== Fault-Aware Mapping (SalvageDNN) demo ==\n";
        workload w = make_standard_workload();
        fault_aware_trainer trainer(*w.model, w.train_data, w.test_data, w.trainer_cfg);
        std::cout << "clean accuracy " << w.clean_accuracy * 100.0 << "% | fault rate "
                  << fault_rate << "\n\n";

        random_fault_config fc;
        fc.fault_rate = fault_rate;
        const fault_grid faults = generate_random_faults(w.array, fc, seed);

        // Per-layer saliency saved by FAM.
        const auto layers = collect_mapped_layers(*w.model);
        const auto perms = fam_permutations(*w.model, w.array, faults);
        csv_table saliency({"layer", "kind", "pruned_saliency_identity",
                            "pruned_saliency_fam", "saved_pct"});
        saliency.set_precision(3);
        std::vector<std::size_t> identity(w.array.cols);
        for (std::size_t i = 0; i < identity.size(); ++i) { identity[i] = i; }
        for (std::size_t k = 0; k < layers.size(); ++k) {
            const double base = pruned_saliency(layers[k], w.array, faults, identity);
            const double fam = pruned_saliency(layers[k], w.array, faults, perms[k]);
            saliency.add_row({static_cast<long long>(k), layers[k].kind, base, fam,
                              base > 0.0 ? 100.0 * (1.0 - fam / base) : 0.0});
        }
        saliency.write_pretty(std::cout);

        // Accuracy of the three mitigation levels on this chip.
        restore_parameters(w.model->parameters(), w.pretrained);
        attach_fault_masks(*w.model, w.array, faults);
        const double acc_fap = trainer.evaluate();
        clear_fault_masks(*w.model);

        restore_parameters(w.model->parameters(), w.pretrained);
        attach_fault_masks_permuted(*w.model, w.array, faults, perms);
        const double acc_fam = trainer.evaluate();
        clear_fault_masks(*w.model);

        restore_parameters(w.model->parameters(), w.pretrained);
        attach_fault_masks(*w.model, w.array, faults);
        const double acc_fat = trainer.train(fat_epochs).final_accuracy;
        clear_fault_masks(*w.model);
        restore_parameters(w.model->parameters(), w.pretrained);

        std::cout << "\naccuracy on this chip:\n"
                  << "  FAP (prune only):              " << acc_fap * 100.0 << "%\n"
                  << "  FAM (saliency-driven mapping): " << acc_fam * 100.0 << "%\n"
                  << "  FAP+T (" << fat_epochs << " epochs of FAT):     "
                  << acc_fat * 100.0 << "%\n";
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
