// Ablation — the mitigation hierarchy that motivates the paper (§I):
// unmitigated stuck-at faults vs FAP (prune) vs FAM (saliency-driven
// mapping, SalvageDNN) vs FAP+T (fault-aware retraining).
//
// Reproduces the qualitative claims of Zhang et al. (VTS'18) and Hanif &
// Shafique (SalvageDNN): unmitigated faults are catastrophic even at small
// rates; FAP recovers most accuracy at low rates but degrades with rate;
// FAM buys accuracy back without retraining; FAT restores accuracy at the
// cost of retraining epochs.
//
// Output: CSV (technique, fault_rate, accuracy, retraining_epochs).
// Options: --rates ... (default 0.01,0.05,0.1,0.2,0.4), --fat-epochs E
//          (default 2).

#include <iostream>

#include "core/mitigation.h"
#include "core/workload.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/log.h"
#include "util/stopwatch.h"

using namespace reduce;

int main(int argc, char** argv) {
    try {
        const cli_args args(argc, argv);
        set_log_level(args.get_flag("verbose") ? log_level::info : log_level::warn);
        stopwatch timer;

        mitigation_config cfg;
        cfg.fault_rates = args.get_double_list("rates", {0.01, 0.05, 0.1, 0.2, 0.4});
        cfg.fat_epochs = args.get_double("fat-epochs", 2.0);
        cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 555));
        args.reject_unread_options();

        workload w = make_standard_workload();
        std::cerr << "[mitigation] clean accuracy " << w.clean_accuracy * 100.0 << "%\n";

        const std::vector<mitigation_outcome> outcomes =
            compare_mitigations(*w.model, w.pretrained, w.train_data, w.test_data, w.array,
                                w.trainer_cfg, cfg);

        csv_table out({"technique", "fault_rate", "accuracy", "retraining_epochs"});
        out.set_precision(4);
        for (const mitigation_outcome& o : outcomes) {
            out.add_row({o.technique, o.fault_rate, o.accuracy * 100.0, o.retraining_epochs});
        }
        std::cout << "# Mitigation baselines (clean accuracy "
                  << w.clean_accuracy * 100.0 << "%)\n";
        out.write(std::cout);
        std::cerr << "[mitigation] done in " << timer.seconds() << " s\n";
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
