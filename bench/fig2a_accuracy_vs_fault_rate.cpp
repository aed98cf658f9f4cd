// Fig. 2a — Resilience trend: accuracy vs fault rate at different amounts
// of fault-aware retraining.
//
// Paper series: {No Re-training, 0.05 Epochs, 5 Epochs, 10 Epochs} over
// fault rates 0 → 0.8. One retraining run per (rate, repeat) covers every
// series: the trajectory is evaluated at each retraining level.
//
// Output: CSV on stdout (fault_rate, one column per retraining level).
// Options:
//   --rates 0.0,0.1,...   fault-rate grid        (default 0:0.1:0.8)
//   --levels 0,0.05,5,10  retraining levels      (default paper's)
//   --repeats N           fault maps per rate    (default 3)
//   --paper-scale         5 repeats
//   --seed S              experiment seed
//   --sweep-threads N     sweep worker threads   (default 1; 0 = all cores)
//   --gemm-threads N   intra-op tensor threads per worker (default 1; 0 = all cores)
//   --eval-group K     same-rate cells per grouped epoch-0 eval pass
//                      (default 1; never changes the table, only wall-clock)
//   --scenario SPEC       fault-event timeline inside every cell's episode
//                         (grammar of fault/scenario.h, e.g.
//                         "strike@0.5:0.05;mode=recover;rollback=2"); feeds
//                         the fingerprint, so scenario tables cache apart
//   --cache-dir P         reuse/store the Step-1 table under P
//   --cache-gc            prune the Step-1 cache first (stale schemas, plus
//                         oldest entries beyond --cache-gc-max-mb)
//   --save-table P        dump the resilience table JSON to P

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
            args.get_double_list("rates", {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8});
        std::vector<double> levels = args.get_double_list("levels", {0.0, 0.05, 5.0, 10.0});
        std::size_t repeats = static_cast<std::size_t>(args.get_int("repeats", 3));
        if (args.get_flag("paper-scale")) { repeats = 5; }
        const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 20230221));
        sweep_options sweep;
        sweep.threads = static_cast<std::size_t>(args.get_int("sweep-threads", 1));
        sweep.gemm_threads = static_cast<std::size_t>(args.get_int("gemm-threads", 1));
        sweep.eval_group = static_cast<std::size_t>(args.get_int("eval-group", 1));

        double budget = 0.0;
        for (const double level : levels) { budget = std::max(budget, level); }
        if (budget == 0.0) { budget = 1.0; }

        resilience_config cfg;
        cfg.fault_rates = rates;
        cfg.repeats = repeats;
        cfg.max_epochs = budget;
        cfg.eval_grid = levels;  // evaluate exactly at the series levels
        cfg.seed = seed;
        cfg.context = workload_context();
        if (args.has("scenario")) { cfg.scenario = parse_scenario(args.get("scenario", "")); }

        const resilience_table table = [&]() -> resilience_table {
            // A warm cache answers before the workload is even built — no
            // dataset synthesis, no pretraining.
            if (args.has("cache-dir")) {
                const resilience_cache cache(args.get("cache-dir", ""));
                if (std::optional<resilience_table> cached = cache.load(cfg)) {
                    std::cerr << "[fig2a] Step-1 cache hit: " << cache.path_for(cfg) << '\n';
                    return std::move(*cached);
                }
            }
            workload w = make_standard_workload();
            std::cerr << "[fig2a] workload ready: clean accuracy "
                      << w.clean_accuracy * 100.0 << "%\n";
            resilience_analyzer analyzer(*w.model, w.pretrained, w.train_data, w.test_data,
                                         w.array, w.trainer_cfg);
            return run_resilience_sweep(analyzer, cfg, sweep, args.get("cache-dir", ""));
        }();
        if (args.has("save-table")) {
            json_save_file(args.get("save-table", ""), table.to_json());
            std::cerr << "[fig2a] resilience table saved to " << args.get("save-table", "")
                      << '\n';
        }

        std::vector<std::string> columns = {"fault_rate"};
        for (const double level : levels) {
            columns.push_back(level == 0.0 ? "no_retraining"
                                           : "epochs_" + std::to_string(level).substr(0, 4));
        }
        csv_table out(columns);
        out.set_precision(4);
        for (const double rate : table.fault_rates()) {
            std::vector<csv_cell> row = {rate};
            for (const double level : levels) {
                row.push_back(table.accuracy_at(rate, level, statistic::mean) * 100.0);
            }
            out.add_row(std::move(row));
        }
        std::cout << "# Fig 2a: accuracy [%] vs fault rate at retraining levels "
                     "(mean over "
                  << repeats << " fault maps)\n";
        out.write(std::cout);
        std::cerr << "[fig2a] done in " << timer.seconds() << " s\n";
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
