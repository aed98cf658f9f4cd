// Ablation — design choices inside Step 2 (retraining-amount selection).
//
// Sweeps the selector's knobs on one fleet:
//   * statistic over repeats: min / mean / median / max
//   * effective-fault-rate estimator: whole_array / used_subarray /
//     weight_weighted
//   * safety margin added on top of the lookup
// and reports, per configuration: average epochs per chip and % of chips
// meeting the constraint. This quantifies DESIGN.md's claims: max is the
// robust choice; the estimator matters once layers underfill the array.
//
// Output: one CSV row per selector configuration.
// Options: --chips N (default 40), --constraint A (default 91),
//          --budget E (default 6), --repeats N (default 4),
//          --threads N (executor workers, default 1).

#include <iostream>

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

        const std::size_t num_chips = static_cast<std::size_t>(args.get_int("chips", 40));
        const double constraint = args.get_double("constraint", 91.0) / 100.0;
        const double budget = args.get_double("budget", 6.0);
        const std::size_t repeats = static_cast<std::size_t>(args.get_int("repeats", 4));
        const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 424242));
        const std::size_t threads = static_cast<std::size_t>(args.get_int("threads", 1));
        args.reject_unread_options();

        workload w = make_standard_workload();
        std::cerr << "[ablation-selector] clean accuracy " << w.clean_accuracy * 100.0
                  << "%\n";

        fleet_executor executor(*w.model, w.pretrained, w.train_data, w.test_data, w.array,
                                w.trainer_cfg, fleet_executor_config{.threads = threads});
        resilience_config rc;
        rc.fault_rates = {0.0, 0.1, 0.2, 0.3};
        rc.repeats = repeats;
        rc.max_epochs = budget;
        rc.seed = seed;
        const resilience_table table = executor.analyze(rc);
        std::cerr << "[ablation-selector] resilience done (" << timer.seconds() << " s)\n";

        fleet_config fc;
        fc.num_chips = num_chips;
        fc.rate_lo = 0.02;
        fc.rate_hi = 0.28;
        fc.seed = seed + 1;
        const std::vector<chip> fleet = make_fleet(w.array, fc);

        csv_table out({"statistic", "rate_estimator", "safety_margin_epochs",
                       "avg_epochs_per_chip", "pct_meeting_constraint"});
        out.set_precision(4);

        const statistic stats[] = {statistic::min, statistic::mean, statistic::median,
                                   statistic::max};
        const std::pair<effective_rate_kind, const char*> estimators[] = {
            {effective_rate_kind::whole_array, "whole_array"},
            {effective_rate_kind::used_subarray, "used_subarray"},
            {effective_rate_kind::weight_weighted, "weight_weighted"},
        };

        // Sweep 1: statistic (paper's max-vs-mean argument, extended).
        for (const statistic stat : stats) {
            selector_config sel;
            sel.accuracy_target = constraint;
            sel.stat = stat;
            const policy_outcome outcome = executor.run(
                reduce_policy(table, sel, "stat-" + to_string(stat)), fleet);
            out.add_row({to_string(stat), std::string("used_subarray"), 0.0,
                         outcome.mean_epochs(), outcome.fraction_meeting() * 100.0});
            std::cerr << "[ablation-selector] stat=" << to_string(stat) << " done ("
                      << timer.seconds() << " s)\n";
        }

        // Sweep 2: effective-rate estimator (with the max statistic).
        for (const auto& [kind, name] : estimators) {
            selector_config sel;
            sel.accuracy_target = constraint;
            sel.stat = statistic::max;
            sel.rate_kind = kind;
            const policy_outcome outcome = executor.run(
                reduce_policy(table, sel, std::string("est-") + name), fleet);
            out.add_row({std::string("max"), std::string(name), 0.0, outcome.mean_epochs(),
                         outcome.fraction_meeting() * 100.0});
            std::cerr << "[ablation-selector] estimator=" << name << " done ("
                      << timer.seconds() << " s)\n";
        }

        // Sweep 3: safety margin on top of the mean statistic (an
        // alternative to max: how much padding buys the same robustness?).
        for (const double margin : {0.0, 0.1, 0.25, 0.5}) {
            selector_config sel;
            sel.accuracy_target = constraint;
            sel.stat = statistic::mean;
            sel.safety_margin = margin;
            const policy_outcome outcome = executor.run(
                reduce_policy(table, sel, "margin-" + std::to_string(margin).substr(0, 4)),
                fleet);
            out.add_row({std::string("mean"), std::string("used_subarray"), margin,
                         outcome.mean_epochs(), outcome.fraction_meeting() * 100.0});
            std::cerr << "[ablation-selector] margin=" << margin << " done ("
                      << timer.seconds() << " s)\n";
        }

        // Sweep 4: interpolation mode between resilience-grid rates.
        for (const bool upper : {false, true}) {
            selector_config sel;
            sel.accuracy_target = constraint;
            sel.stat = statistic::max;
            sel.interp = upper ? resilience_table::interpolation::upper
                               : resilience_table::interpolation::linear;
            const policy_outcome outcome = executor.run(
                reduce_policy(table, sel, upper ? "interp-upper" : "interp-linear"), fleet);
            out.add_row({std::string(upper ? "max/upper" : "max/linear"),
                         std::string("used_subarray"), 0.0, outcome.mean_epochs(),
                         outcome.fraction_meeting() * 100.0});
            std::cerr << "[ablation-selector] interp=" << (upper ? "upper" : "linear")
                      << " done (" << timer.seconds() << " s)\n";
        }

        std::cout << "# Selector ablation: " << num_chips << " chips, constraint "
                  << constraint * 100.0 << "%\n";
        out.write(std::cout);
        std::cerr << "[ablation-selector] done in " << timer.seconds() << " s\n";
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
