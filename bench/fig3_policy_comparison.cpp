// Fig. 3 — retraining-policy comparison over a fleet of faulty chips.
//
// Panels (a)-(e): per-chip scatter of (final accuracy, epochs spent), one
// panel per policy run. The default run list reproduces the paper:
//   (a) reduce        — Reduce with the MAX statistic (the recommendation)
//   (b) reduce-mean   — Reduce with the MEAN statistic (under-trains)
//   (c)(d)(e) fixed   — fixed-epoch policies (low / mid / high)
// Panel (f): summary — % of chips meeting the accuracy constraint vs the
// average number of retraining epochs per chip. Reduce-max falls on the
// Pareto front: fewer average epochs for at least the robustness of the
// larger fixed policies.
//
// Policies are resolved by name through the policy registry, so any
// registered policy (oracle, binned, ...) can join the comparison; the
// fleet fans out over a thread pool with thread-count-independent results.
//
// Output: per-policy CSV scatter sections, then the panel-(f) summary CSV.
// Options:
//   --policy a,b,c   registry names to run    (default reduce,reduce-mean,fixed;
//                    "fixed" expands to one run per --fixed level)
//   --threads N      executor worker threads  (default 1; 0 = all cores)
//   --sweep-threads N  Step-1 sweep threads   (default: --threads)
//   --cache-dir P    reuse/store the Step-1 table under P
//   --chips N        fleet size               (default 100, as the paper)
//   --constraint A   accuracy constraint in % (default 91)
//   --fixed a,b,c    fixed policies (epochs)  (default 0.25,0.5,1.0)
//   --bins K         binned policy job count  (default 4)
//   --rate-lo/--rate-hi   fleet fault-rate range (default 0.01..0.3)
//   --budget E       resilience budget        (default 6)
//   --repeats N      resilience repeats       (default 5)
//   --scenario SPEC  fault-event timeline applied to every chip's retraining
//                    AND every Step-1 sweep cell (grammar of fault/scenario.h);
//                    forces per-chip serial training and feeds the Step-1
//                    fingerprint, so scenario tables cache apart
//   --list-policies  print the registry and exit

#include <iostream>

#include "core/fleet_executor.h"
#include "core/policy.h"
#include "core/workload.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/log.h"
#include "util/stopwatch.h"

using namespace reduce;

namespace {

void print_scatter(const policy_outcome& outcome, const char* panel) {
    csv_table out({"policy", "chip_id", "nominal_fault_rate", "effective_fault_rate",
                   "epochs_allocated", "epochs_run", "accuracy_before", "final_accuracy",
                   "meets_constraint"});
    out.set_precision(4);
    for (const chip_outcome& c : outcome.chips) {
        out.add_row({outcome.policy_name, static_cast<long long>(c.chip_id),
                     c.nominal_fault_rate, c.effective_fault_rate, c.epochs_allocated,
                     c.epochs_run, c.accuracy_before * 100.0, c.final_accuracy * 100.0,
                     static_cast<long long>(c.meets_constraint ? 1 : 0)});
    }
    std::cout << "# Fig 3" << panel << ": per-chip scatter for policy '"
              << outcome.policy_name << "'\n";
    out.write(std::cout);
    std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const cli_args args(argc, argv);
        set_log_level(args.get_flag("verbose") ? log_level::info : log_level::warn);
        stopwatch timer;

        const policy_registry& registry = policy_registry::global();
        if (args.get_flag("list-policies")) {
            args.reject_unread_options();
            for (const std::string& name : registry.names()) {
                std::cout << name << "\t" << registry.describe(name) << '\n';
            }
            return 0;
        }

        const std::vector<std::string> policy_names =
            args.get_string_list("policy", {"reduce", "reduce-mean", "fixed"});
        // Fail on typos before paying for the workload + resilience analysis.
        for (const std::string& name : policy_names) {
            REDUCE_CHECK(registry.contains(name), "unknown retraining policy '"
                                                      << name << "'; see --list-policies");
        }
        const std::size_t threads = static_cast<std::size_t>(args.get_int("threads", 1));
        const auto sweep_threads = static_cast<std::size_t>(
            args.get_int("sweep-threads", args.get_int("threads", 1)));
        const std::string cache_dir = args.get("cache-dir", "");
        const std::size_t num_chips = static_cast<std::size_t>(args.get_int("chips", 100));
        const double constraint = args.get_double("constraint", 91.0) / 100.0;
        const std::vector<double> fixed_levels =
            args.get_double_list("fixed", {0.25, 0.5, 1.0});
        const std::size_t bins = static_cast<std::size_t>(args.get_int("bins", 4));
        const double rate_lo = args.get_double("rate-lo", 0.01);
        const double rate_hi = args.get_double("rate-hi", 0.30);
        const double budget = args.get_double("budget", 6.0);
        const std::size_t repeats = static_cast<std::size_t>(args.get_int("repeats", 5));
        const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 20230309));
        const scenario_config scenario =
            args.has("scenario") ? parse_scenario(args.get("scenario", "")) : scenario_config{};
        args.reject_unread_options();

        workload w = make_standard_workload();
        std::cerr << "[fig3] workload ready: clean accuracy " << w.clean_accuracy * 100.0
                  << "%\n";

        fleet_executor executor(
            *w.model, w.pretrained, w.train_data, w.test_data, w.array, w.trainer_cfg,
            fleet_executor_config{.threads = threads, .scenario = scenario});

        // Step 1 (shared by every table-driven policy) — parallel, and
        // reusable across invocations via the fingerprint-keyed cache.
        resilience_config rc;
        rc.fault_rates = {0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3};
        rc.repeats = repeats;
        rc.max_epochs = budget;
        rc.seed = seed;
        rc.context = w.context;
        rc.scenario = scenario;
        sweep_options sweep;
        sweep.threads = sweep_threads;
        resilience_analyzer analyzer(*w.model, w.pretrained, w.train_data, w.test_data,
                                     w.array, w.trainer_cfg);
        const resilience_table table = run_resilience_sweep(analyzer, rc, sweep, cache_dir);
        std::cerr << "[fig3] resilience analysis done (" << timer.seconds() << " s)\n";

        // The fleet of faulty chips.
        fleet_config fc;
        fc.num_chips = num_chips;
        fc.rate_lo = rate_lo;
        fc.rate_hi = rate_hi;
        fc.seed = seed + 1;
        const std::vector<chip> fleet = make_fleet(w.array, fc);

        policy_context ctx;
        ctx.table = &table;
        ctx.selector.accuracy_target = constraint;
        ctx.selector.stat = statistic::max;
        ctx.num_bins = bins;

        std::vector<policy_outcome> outcomes;
        for (const std::string& name : policy_names) {
            // "fixed" expands into one run per requested epoch level, as in
            // the paper's panels (c)-(e).
            if (name == "fixed") {
                for (const double epochs : fixed_levels) {
                    ctx.fixed_epochs = epochs;
                    const auto policy = registry.make(name, ctx);
                    const std::string run_name =
                        "fixed-" + std::to_string(epochs).substr(0, 4);
                    outcomes.push_back(executor.run(*policy, fleet, run_name));
                    std::cerr << "[fig3] " << run_name << " done (" << timer.seconds()
                              << " s, " << threads << " thread(s))\n";
                }
                continue;
            }
            const auto policy = registry.make(name, ctx);
            outcomes.push_back(executor.run(*policy, fleet));
            std::cerr << "[fig3] " << name << " done (" << timer.seconds() << " s, "
                      << threads << " thread(s))\n";
        }

        const char* panels[] = {"a", "b", "c", "d", "e", "?", "?", "?"};
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            print_scatter(outcomes[i], panels[std::min<std::size_t>(i, 7)]);
        }

        csv_table summary({"policy", "avg_epochs_per_chip", "total_epochs",
                           "pct_meeting_constraint"});
        summary.set_precision(4);
        for (const policy_outcome& outcome : outcomes) {
            summary.add_row({outcome.policy_name, outcome.mean_epochs(),
                             outcome.total_epochs(), outcome.fraction_meeting() * 100.0});
        }
        std::cout << "# Fig 3f: % of " << num_chips
                  << " chips with accuracy >= " << constraint * 100.0
                  << "% vs average retraining epochs per chip\n";
        summary.write(std::cout);
        std::cerr << "[fig3] done in " << timer.seconds() << " s\n";
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
