// Example: a per-chip retraining service for a production lot.
//
// Models the deployment the paper targets: a lot of fabricated accelerator
// dies arrives from test with one fault map each; the service must ship a
// tuned DNN to every die while spending as little aggregate training time
// as possible. Compares the Reduce policy against a fixed policy and
// writes the tuned models and the fleet manifest to an output directory.
//
// Usage: chip_fleet [--chips 20] [--constraint 0.91] [--out /tmp/fleet_out]
//          [--distribution uniform|lognormal|fixed] [--policy reduce]
//          [--threads 1] [--gemm-threads 1] [--fixed-epochs 1.0]
//          [--eval-batch-chips 1] [--train-batch-chips 1]
//          [--scenario "strike@0.5:0.05;mode=recover;rollback=2"]
//
// --scenario applies a fault-event timeline (fault/scenario.h grammar) to
// every chip's retraining episode: strikes/aging land mid-run, the tuner
// recovers (or restarts, per mode=) and continues — the run log counts the
// events and rollbacks.
//
// The policy under test is resolved by name from the policy registry
// (reduce, reduce-mean, oracle, binned, ...) and compared against the
// fixed-epochs baseline; tuning fans out over --threads workers.
// --eval-batch-chips groups accuracy_before evaluations,
// --train-batch-chips widens the block of chips a worker claims at once
// (each chip still retrains in its own episode) — neither changes a
// tuned-model byte; the run log reports how the claims grouped.

#include <filesystem>
#include <iostream>

#include "core/fleet_executor.h"
#include "core/policy.h"
#include "core/workload.h"
#include "fault/serialization.h"
#include "nn/serialize.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/log.h"
#include "util/stopwatch.h"

using namespace reduce;

int main(int argc, char** argv) {
    try {
        const cli_args args(argc, argv);
        set_log_level(log_level::warn);
        stopwatch timer;

        const std::size_t num_chips = static_cast<std::size_t>(args.get_int("chips", 20));
        const double constraint = args.get_double("constraint", 0.91);
        const std::string out_dir = args.get("out", "");
        const std::string policy_name = args.get("policy", "reduce");
        const std::size_t threads = static_cast<std::size_t>(args.get_int("threads", 1));
        const std::size_t gemm_threads =
            static_cast<std::size_t>(args.get_int("gemm-threads", 1));
        const std::size_t eval_batch_chips =
            static_cast<std::size_t>(args.get_int("eval-batch-chips", 1));
        const std::size_t train_batch_chips =
            static_cast<std::size_t>(args.get_int("train-batch-chips", 1));
        const double fixed_epochs = args.get_double("fixed-epochs", 1.0);
        // Fail on typos before paying for the workload + resilience analysis.
        REDUCE_CHECK(policy_registry::global().contains(policy_name),
                     "unknown retraining policy '" << policy_name << "'");

        std::cout << "== Chip-fleet retraining service ==\n";
        workload w = make_standard_workload();
        std::cout << "pre-trained model at " << w.clean_accuracy * 100.0
                  << "% | constraint " << constraint * 100.0 << "%\n";

        // The lot: per-chip fault maps from the yield model.
        fleet_config fc;
        fc.num_chips = num_chips;
        fc.distribution = rate_distribution_from_string(args.get("distribution", "uniform"));
        fc.rate_lo = args.get_double("rate-lo", 0.02);
        fc.rate_hi = args.get_double("rate-hi", 0.28);
        fc.seed = static_cast<std::uint64_t>(args.get_int("seed", 77));
        const std::vector<chip> fleet = make_fleet(w.array, fc);
        std::cout << "lot of " << fleet.size() << " chips, fault rates "
                  << fc.rate_lo << ".." << fc.rate_hi << " ("
                  << args.get("distribution", "uniform") << ")\n\n";

        const scenario_config scenario =
            args.has("scenario") ? parse_scenario(args.get("scenario", "")) : scenario_config{};
        fleet_executor executor(*w.model, w.pretrained, w.train_data, w.test_data, w.array,
                                w.trainer_cfg,
                                fleet_executor_config{.threads = threads,
                                                      .gemm_threads = gemm_threads,
                                                      .eval_batch_chips = eval_batch_chips,
                                                      .train_batch_chips = train_batch_chips,
                                                      .scenario = scenario});

        // Step 1 once for the whole lot.
        resilience_config rc;
        rc.fault_rates = {0.0, 0.1, 0.2, 0.3};
        rc.repeats = 4;
        rc.max_epochs = 5.0;
        const resilience_table table = executor.analyze(rc);
        std::cout << "resilience analysis: " << timer.seconds() << " s\n";

        // Optionally persist every tuned model (Step 3's "distribute").
        if (!out_dir.empty()) {
            std::filesystem::create_directories(out_dir);
            save_fleet(out_dir + "/fleet.json", fleet);
            executor.set_model_sink([&](const chip& c, const model_snapshot& snap) {
                save_snapshot(out_dir + "/chip_" + std::to_string(c.id) + ".rdnn", snap);
            });
        }

        // The policy under test, by registry name.
        policy_context ctx;
        ctx.table = &table;
        ctx.selector.accuracy_target = constraint;
        ctx.selector.stat = statistic::max;
        ctx.fixed_epochs = fixed_epochs;
        const auto policy = policy_registry::global().make(policy_name, ctx);
        const policy_outcome reduce_run = executor.run(*policy, fleet);
        if (!scenario.empty()) {
            const fleet_run_stats& stats = executor.last_run_stats();
            std::cout << "fault timeline: " << stats.timeline_events << " events, "
                      << stats.timeline_rollbacks << " rollbacks, "
                      << stats.timeline_restarts << " restarts, "
                      << stats.serial_nonfinite_chips << " non-finite chips\n";
        }
        executor.set_model_sink(nullptr);
        const policy_outcome fixed_run = executor.run(
            fixed_policy(fixed_epochs, constraint), fleet,
            "fixed-" + std::to_string(fixed_epochs).substr(0, 4));

        csv_table out({"policy", "chips_meeting", "total_chips", "avg_epochs",
                       "total_epochs"});
        out.set_precision(3);
        for (const policy_outcome* run : {&reduce_run, &fixed_run}) {
            long long meeting = 0;
            for (const chip_outcome& c : run->chips) { meeting += c.meets_constraint ? 1 : 0; }
            out.add_row({run->policy_name, meeting, static_cast<long long>(run->chips.size()),
                         run->mean_epochs(), run->total_epochs()});
        }
        std::cout << '\n';
        out.write_pretty(std::cout);

        const double savings = 100.0 * (1.0 - reduce_run.total_epochs() /
                                                  fixed_run.total_epochs());
        std::cout << "\n'" << reduce_run.policy_name << "' spends " << savings
                  << "% fewer total retraining epochs than the fixed policy\n";
        if (!out_dir.empty()) {
            std::cout << "tuned models and fleet manifest written to " << out_dir << '\n';
        }
        std::cout << "total wall time: " << timer.seconds() << " s\n";
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
