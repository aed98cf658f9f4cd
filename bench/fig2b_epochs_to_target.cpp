// Fig. 2b — Amount of FAT required at each fault rate to reach a given
// accuracy level, with min/mean/max error bars over repeated fault maps.
//
// The paper repeats each point five times and reports min/max error bars;
// the spread is the argument for selecting by MAX (mean under-trains).
//
// The sweep behind this figure is Step 1 of Reduce — the expensive stage —
// so this harness exposes the sweep engine's knobs: parallel workers,
// grouped evaluation, and the fingerprint-keyed cache. Splitting the sweep
// across machines is the distributed coordinator's job
// (examples/reduce_coordinator).
//
// Output: CSV on stdout
//   (fault_rate, target_acc, min_epochs, mean_epochs, max_epochs, censored).
// Options:
//   --rates ...      fault-rate grid          (default 0:0.1:0.5)
//   --targets ...    accuracy targets in %    (default 90,91,92)
//   --repeats N      fault maps per rate      (default 5, as the paper)
//   --budget E       epoch budget             (default 6)
//   --paper-scale    finer rate grid (0:0.05:0.5), budget 10
//   --sweep-threads N  sweep worker threads   (default 1; 0 = all cores)
//   --gemm-threads N   intra-op tensor threads per worker (default 1; 0 = all cores)
//   --eval-group K     same-rate cells per grouped epoch-0 eval pass
//                      (default 1; never changes the table, only wall-clock)
//   --cache-dir P    reuse/store the Step-1 table under P
//   --cache-gc       prune the Step-1 cache first: stale-schema entries
//                    always, plus oldest entries beyond --cache-gc-max-mb
//   --save-table P   dump the resilience table JSON to path P

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
        set_log_level(args.get_flag("verbose") ? log_level::info : log_level::warn);
        stopwatch timer;
        maybe_run_cache_gc(args);

        std::vector<double> rates =
            args.get_double_list("rates", {0.0, 0.1, 0.2, 0.3, 0.4, 0.5});
        std::vector<double> targets = args.get_double_list("targets", {90.0, 91.0, 92.0});
        std::size_t repeats = static_cast<std::size_t>(args.get_int("repeats", 5));
        double budget = args.get_double("budget", 6.0);
        if (args.get_flag("paper-scale")) {
            rates = {0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5};
            budget = 10.0;
        }
        const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 20230305));
        sweep_options sweep;
        sweep.threads = static_cast<std::size_t>(args.get_int("sweep-threads", 1));
        sweep.gemm_threads = static_cast<std::size_t>(args.get_int("gemm-threads", 1));
        sweep.eval_group = static_cast<std::size_t>(args.get_int("eval-group", 1));

        resilience_config cfg;
        cfg.fault_rates = rates;
        cfg.repeats = repeats;
        cfg.max_epochs = budget;
        cfg.eval_grid = make_eval_grid(budget, 1.0, 0.05, 0.25);
        cfg.seed = seed;
        cfg.context = workload_context();
        if (args.has("scenario")) { cfg.scenario = parse_scenario(args.get("scenario", "")); }

        const resilience_table table = [&]() -> resilience_table {
            // A warm cache answers before the workload is even built — no
            // dataset synthesis, no pretraining.
            if (args.has("cache-dir")) {
                const resilience_cache cache(args.get("cache-dir", ""));
                if (std::optional<resilience_table> cached = cache.load(cfg)) {
                    std::cerr << "[fig2b] Step-1 cache hit: " << cache.path_for(cfg) << '\n';
                    return std::move(*cached);
                }
            }

            workload w = make_standard_workload();
            std::cerr << "[fig2b] workload ready: clean accuracy "
                      << w.clean_accuracy * 100.0 << "%\n";

            resilience_analyzer analyzer(*w.model, w.pretrained, w.train_data, w.test_data,
                                         w.array, w.trainer_cfg);
            return run_resilience_sweep(analyzer, cfg, sweep, args.get("cache-dir", ""));
        }();

        if (args.has("save-table")) {
            json_save_file(args.get("save-table", ""), table.to_json());
            std::cerr << "[fig2b] resilience table saved to "
                      << args.get("save-table", "") << '\n';
        }

        csv_table out({"fault_rate", "target_accuracy", "min_epochs", "mean_epochs",
                       "max_epochs", "censored_runs"});
        out.set_precision(4);
        for (const double rate : table.fault_rates()) {
            for (const double target_pct : targets) {
                const auto sample = table.epochs_to_target_at(rate, target_pct / 100.0);
                const summary_stats stats = sample.stats();
                out.add_row({rate, target_pct, stats.min, stats.mean, stats.max,
                             static_cast<long long>(sample.censored)});
            }
        }
        std::cout << "# Fig 2b: epochs of FAT needed to reach each accuracy target\n"
                  << "# (min/mean/max over repeated fault maps; censored runs pinned at "
                     "budget "
                  << table.max_epochs() << ")\n";
        out.write(std::cout);
        std::cerr << "[fig2b] done in " << timer.seconds() << " s\n";
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
