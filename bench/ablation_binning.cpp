// Ablation — binning per-chip retraining amounts into k job classes.
//
// Reduce's per-chip amounts are optimal for accuracy-per-epoch but give a
// production line N distinct retraining jobs. Binning rounds each amount up
// to one of k allocations (optimal DP partition; see core/binning.h).
// This bench sweeps k and reports the epoch overhead; it then actually
// retrains one fleet at a chosen k to confirm the constraint-hit rate can
// only improve (every chip gets >= its selected amount).
//
// Output: CSV (num_bins, jobs, total_epochs, overhead_pct), then one
// verification row per policy.
// Options: --chips 30, --constraint 91, --verify-bins 4, --threads 1.

#include <iostream>

#include "core/binning.h"
#include "core/fleet_executor.h"
#include "core/policy.h"
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

        const std::size_t num_chips = static_cast<std::size_t>(args.get_int("chips", 30));
        const double constraint = args.get_double("constraint", 91.0) / 100.0;
        const std::size_t verify_bins =
            static_cast<std::size_t>(args.get_int("verify-bins", 4));
        const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1717));
        const std::size_t threads = static_cast<std::size_t>(args.get_int("threads", 1));
        args.reject_unread_options();

        workload w = make_standard_workload();
        std::cerr << "[binning] clean accuracy " << w.clean_accuracy * 100.0 << "%\n";

        fleet_executor executor(*w.model, w.pretrained, w.train_data, w.test_data, w.array,
                                w.trainer_cfg, fleet_executor_config{.threads = threads});
        resilience_config rc;
        rc.fault_rates = {0.0, 0.1, 0.2, 0.3};
        rc.repeats = 4;
        rc.max_epochs = 5.0;
        rc.seed = seed;
        const resilience_table table = executor.analyze(rc);

        fleet_config fc;
        fc.num_chips = num_chips;
        fc.rate_lo = 0.02;
        fc.rate_hi = 0.28;
        fc.seed = seed + 1;
        const std::vector<chip> fleet = make_fleet(w.array, fc);

        // Per-chip selections (Step 2 only; no training yet).
        selector_config sel;
        sel.accuracy_target = constraint;
        sel.stat = statistic::max;
        const retraining_selector selector(table, sel);
        std::vector<double> amounts;
        amounts.reserve(fleet.size());
        for (const chip& c : fleet) {
            const selection s = selector.select(*w.model, w.array, c.faults);
            amounts.push_back(s.epochs.value_or(table.max_epochs()));
        }

        csv_table sweep({"num_bins", "jobs_used", "total_epochs", "overhead_pct"});
        sweep.set_precision(3);
        for (const std::size_t k : {1u, 2u, 3u, 4u, 6u, 8u, 16u,
                                    static_cast<unsigned>(num_chips)}) {
            const binning_result r = bin_retraining_amounts(amounts, k);
            sweep.add_row({static_cast<long long>(k), static_cast<long long>(r.bins.size()),
                           r.binned_total, r.overhead() * 100.0});
        }
        std::cout << "# Binning sweep: per-chip total = "
                  << bin_retraining_amounts(amounts, num_chips).per_chip_total
                  << " epochs across " << num_chips << " chips\n";
        sweep.write(std::cout);

        // Verification: actually retrain with per-chip vs binned amounts —
        // binned_policy reuses the same DP partition through its plan() hook.
        const policy_outcome per_chip =
            executor.run(reduce_policy(table, sel, "per-chip"), fleet);
        const policy_outcome binned =
            executor.run(binned_policy(table, sel, verify_bins), fleet,
                         "binned-" + std::to_string(verify_bins));

        csv_table verify({"policy", "avg_epochs", "pct_meeting"});
        verify.set_precision(3);
        verify.add_row({per_chip.policy_name, per_chip.mean_epochs(),
                        per_chip.fraction_meeting() * 100.0});
        verify.add_row({binned.policy_name, binned.mean_epochs(),
                        binned.fraction_meeting() * 100.0});
        std::cout << "# Verification: binned allocations never under-train\n";
        verify.write(std::cout);
        std::cerr << "[binning] done in " << timer.seconds() << " s\n";
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
