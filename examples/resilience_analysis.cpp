// Example: Step 1 in isolation — characterize a DNN's fault resilience and
// save the table for later selection runs.
//
// The resilience table is the expensive, chip-independent artifact of the
// Reduce framework: it is computed once per (model, dataset, fault model)
// and then amortized over every fabricated chip. This example prints the
// table in human-readable form and optionally persists it as JSON.
//
// Usage: resilience_analysis [--rates 0,0.1,...] [--repeats 5]
//          [--budget 6] [--targets 90,91,92] [--save table.json]
//          [--sweep-threads N] [--cache-dir P]
//          [--cache-gc [--cache-gc-max-mb M]]   prune the Step-1 cache first

#include <iostream>

#include "core/resilience.h"
#include "core/workload.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/log.h"
#include "util/stopwatch.h"

using namespace reduce;

int main(int argc, char** argv) {
    try {
        const cli_args args(argc, argv);
        set_log_level(log_level::warn);
        stopwatch timer;
        const std::function<void()> cache_gc = cache_gc_from_cli(args);

        const std::vector<double> rates =
            args.get_double_list("rates", {0.0, 0.1, 0.2, 0.3, 0.4});
        const std::vector<double> targets = args.get_double_list("targets", {90.0, 91.0, 92.0});
        const std::size_t repeats = static_cast<std::size_t>(args.get_int("repeats", 5));
        const double budget = args.get_double("budget", 6.0);
        sweep_options sweep;
        sweep.threads = static_cast<std::size_t>(args.get_int("sweep-threads", 1));
        const std::string cache_dir = args.get("cache-dir", "");
        const bool save = args.has("save");
        const std::string save_path = args.get("save", "resilience_table.json");
        args.reject_unread_options();
        if (cache_gc) { cache_gc(); }

        std::cout << "== Resilience analysis (Step 1 of Reduce) ==\n";
        workload w = make_standard_workload();
        std::cout << "model: MLP " << parameter_count(w.model->parameters())
                  << " weights | clean accuracy " << w.clean_accuracy * 100.0 << "%\n"
                  << "array: " << w.array.rows << "x" << w.array.cols
                  << " | fault model: uniform random, FAP-bypassed\n\n";

        resilience_analyzer analyzer(*w.model, w.pretrained, w.train_data, w.test_data,
                                     w.array, w.trainer_cfg);
        resilience_config cfg;
        cfg.fault_rates = rates;
        cfg.repeats = repeats;
        cfg.max_epochs = budget;
        cfg.context = w.context;
        const resilience_table table = [&] {
            if (!cache_dir.empty()) {
                // Inlines analyze_cached so the narrative reflects what
                // actually happened (a corrupt entry is a miss, not a hit).
                const resilience_cache cache(cache_dir);
                if (std::optional<resilience_table> cached = cache.load(cfg)) {
                    std::cout << "Step-1 cache hit: reused " << cache.path_for(cfg) << '\n';
                    return std::move(*cached);
                }
                resilience_table result = analyzer.analyze(cfg, sweep);
                cache.store(result, cfg);
                std::cout << "Step-1 cache miss: stored " << cache.path_for(cfg) << '\n';
                return result;
            }
            return analyzer.analyze(cfg, sweep);
        }();
        std::cout << "analysis of " << table.runs().size() << " retraining runs took "
                  << timer.seconds() << " s\n\n";

        csv_table view({"fault_rate", "acc_no_retrain", "target", "epochs_min",
                        "epochs_mean", "epochs_max", "censored"});
        view.set_precision(3);
        for (const double rate : table.fault_rates()) {
            for (const double target : targets) {
                const auto sample = table.epochs_to_target_at(rate, target / 100.0);
                const summary_stats stats = sample.stats();
                view.add_row({rate, table.accuracy_at(rate, 0.0) * 100.0, target, stats.min,
                              stats.mean, stats.max,
                              static_cast<long long>(sample.censored)});
            }
        }
        view.write_pretty(std::cout);

        if (save) {
            json_save_file(save_path, table.to_json());
            std::cout << "\nresilience table saved to " << save_path << '\n';
            // Demonstrate the round-trip a selection service would perform.
            const resilience_table reloaded =
                resilience_table::from_json(json_load_file(save_path));
            std::cout << "reloaded table answers: rate 0.15, target 91% -> "
                      << reloaded.epochs_for(0.15, 0.91, statistic::max).value_or(-1.0)
                      << " epochs (max statistic)\n";
        }
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
