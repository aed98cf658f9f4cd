// micro_scenario — fault-event timeline benchmark and the determinism gate
// for mid-retraining strikes: quantifies the epochs recover-and-continue
// saves over restart-from-scratch when a fault event lands mid-run.
//
// For each strike scenario, one retraining episode is run twice on the same
// chip: once in recover mode (ReCycle-style — rebuild masks in place,
// re-zero newly masked weights and optimizer state, keep training) and once
// in restart mode (reset to the pretrained weights under the new union mask
// with a fresh optimizer — restart-from-scratch accounting). The reported
// row is epochs-to-target under each mode; the headline `epochs_saved` is
// restart minus recover on the first scenario where both reach the target.
//
// Correctness gates (the bench exits non-zero on any mismatch and NEVER on
// timing, so CI can gate without flaking on noise):
//   1. replay: the same episode run twice is byte-identical, trajectory
//      and counters (timeline events are a pure function of the scenario
//      and chip coordinates);
//   2. dormancy: a timeline whose events all land beyond the budget is
//      byte-identical to no timeline at all (the hook plumbing is free).
//
// Output: BENCH_scenario.json (schema 1: per-row scenario/mode epochs to
// target + final accuracy + timeline counters; root carries the headline
// epochs_saved and the verified flag).
//
// Options:
//   --out PATH        JSON output path          (default BENCH_scenario.json)
//   --scenarios a,b   comma-separated strike specs (fault/scenario.h grammar,
//                     mode settings ignored — both modes run per spec)
//   --rate R          base chip fault rate      (default 0.2)
//   --budget E        epoch budget per episode  (default 5)
//   --target A        accuracy target in [0,1]  (default 0.91)
//   --seed N          chip map seed             (default 4242)

#include <algorithm>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/fat_trainer.h"
#include "core/workload.h"
#include "fault/chip.h"
#include "fault/models.h"
#include "fault/scenario.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace reduce;

namespace {

/// First epoch at/after `from_epoch` where the trajectory re-attains the
/// target — the recover-vs-restart question is how fast a mode re-reaches
/// the accuracy bar AFTER the last fault event, not whether the pre-strike
/// warmup ever crossed it.
std::optional<double> epochs_to_reattain(const std::vector<training_point>& trajectory,
                                         double target, double from_epoch) {
    for (const training_point& p : trajectory) {
        if (p.epochs >= from_epoch - 1e-9 && p.test_accuracy >= target) { return p.epochs; }
    }
    return std::nullopt;
}

/// Bitwise episode equality: every trajectory point and every counter.
bool same_result(const fat_result& a, const fat_result& b) {
    if (a.trajectory.size() != b.trajectory.size()) { return false; }
    for (std::size_t i = 0; i < a.trajectory.size(); ++i) {
        if (std::memcmp(&a.trajectory[i].epochs, &b.trajectory[i].epochs,
                        sizeof(double)) != 0 ||
            std::memcmp(&a.trajectory[i].test_accuracy, &b.trajectory[i].test_accuracy,
                        sizeof(double)) != 0) {
            return false;
        }
    }
    return std::memcmp(&a.final_accuracy, &b.final_accuracy, sizeof(double)) == 0 &&
           a.events_applied == b.events_applied && a.rollbacks == b.rollbacks &&
           a.restarts == b.restarts && a.hit_nonfinite == b.hit_nonfinite;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const cli_args args(argc, argv);
        set_log_level(log_level::warn);
        const std::string out_path = args.get("out", "BENCH_scenario.json");
        const double rate = args.get_double("rate", 0.2);
        const double budget = args.get_double("budget", 5.0);
        const double target = args.get_double("target", 0.91);
        const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 4242));
        const std::vector<std::string> specs = args.get_string_list(
            "scenarios", {"strike@1:0.05", "strike@2:0.1", "strike@0.5:0.05;accrue@2:0.03"});
        args.reject_unread_options();

        workload w = make_standard_workload();
        std::cout << "clean accuracy " << w.clean_accuracy * 100.0 << "%, chip rate "
                  << rate << ", target " << target * 100.0 << "%, budget " << budget
                  << " epochs\n";
        random_fault_config fc;
        fc.fault_rate = rate;
        const chip c{0, seed, rate, generate_random_faults(w.array, fc, seed)};
        const std::vector<double> grid = make_eval_grid(budget, 1.0, 0.05, 0.25);
        // One full retraining episode for the chip under the given scenario
        // (empty → event-free); the episode leaves the pristine pretrained
        // model behind, so episodes are independent and replayable.
        fault_aware_trainer trainer(*w.model, w.train_data, w.test_data, w.trainer_cfg);
        const auto run = [&](const scenario_config& sc) {
            return run_episode(trainer, w.pretrained, w.array,
                               {.seed = c.seed,
                                .faults = c.faults,
                                .timeline = timeline_for_chip(sc, c.id),
                                .budget = budget,
                                .grid = grid})
                .fat;
        };

        bool all_ok = true;
        const auto gate = [&](const char* name, bool ok) {
            all_ok = all_ok && ok;
            std::cout << "verify " << name << ": " << (ok ? "ok" : "*** FAILED ***")
                      << '\n';
        };

        // ---- determinism gates (never timing) ------------------------------
        {
            scenario_config probe = parse_scenario(specs[0]);
            probe.mode = recovery_mode::recover;
            const fat_result first = run(probe);
            const fat_result replay = run(probe);
            gate("replay", same_result(first, replay));

            scenario_config dormant = parse_scenario(specs[0]);
            dormant.events[0].epoch = budget + 100.0;  // never fires
            const fat_result armed = run(dormant);
            const fat_result plain = run(scenario_config{});
            gate("dormant-timeline", same_result(armed, plain) && armed.events_applied == 0);
        }

        // ---- recover vs restart rows ---------------------------------------
        json_array rows;
        double headline_saved = 0.0;
        std::string headline_scenario;
        for (const std::string& spec : specs) {
            double recover_epochs = -1.0;
            double restart_epochs = -1.0;
            for (const recovery_mode mode :
                 {recovery_mode::recover, recovery_mode::restart}) {
                scenario_config sc = parse_scenario(spec);
                sc.mode = mode;
                double last_event = 0.0;
                for (const fault_event& ev : sc.events) {
                    if (ev.epoch < budget) { last_event = std::max(last_event, ev.epoch); }
                }
                stopwatch timer;
                const fat_result result = run(sc);
                const double wall_ms = timer.milliseconds();
                const auto reached =
                    epochs_to_reattain(result.trajectory, target, last_event);
                const bool censored = !reached.has_value();
                const double epochs = reached.value_or(budget);
                if (mode == recovery_mode::recover) { recover_epochs = censored ? -1 : epochs; }
                if (mode == recovery_mode::restart) { restart_epochs = censored ? -1 : epochs; }

                std::cout << spec << "  " << to_string(mode) << ": "
                          << (censored ? "censored at " : "target at ") << epochs
                          << " epochs, final " << result.final_accuracy * 100.0 << "% ("
                          << result.events_applied << " events, " << result.rollbacks
                          << " rollbacks, " << result.restarts << " restarts)\n";

                json_object row;
                row.set("scenario", json_value(scenario_to_string(sc)));
                row.set("mode", json_value(to_string(mode)));
                row.set("fault_rate", json_value(rate));
                row.set("last_event_epoch", json_value(last_event));
                row.set("epochs_to_target", json_value(epochs));
                row.set("censored", json_value(censored));
                row.set("final_accuracy", json_value(result.final_accuracy));
                row.set("events_applied", json_value(result.events_applied));
                row.set("rollbacks", json_value(result.rollbacks));
                row.set("restarts", json_value(result.restarts));
                row.set("hit_nonfinite", json_value(result.hit_nonfinite));
                row.set("wall_ms", json_value(wall_ms));
                rows.push_back(json_value(std::move(row)));
            }
            if (headline_scenario.empty() && recover_epochs >= 0.0 && restart_epochs >= 0.0 &&
                recover_epochs < restart_epochs) {
                headline_scenario = spec;
                headline_saved = restart_epochs - recover_epochs;
            }
        }
        // The scientific claim this bench exists to pin: on at least one
        // strike scenario, recover-and-continue reaches the target in fewer
        // epochs than restart-from-scratch.
        gate("recover-saves-epochs", !headline_scenario.empty());

        json_object root;
        root.set("bench", json_value("micro_scenario"));
        root.set("schema_version", json_value(1));
        root.set("hardware_concurrency",
                 json_value(static_cast<std::size_t>(std::thread::hardware_concurrency())));
        root.set("budget_epochs", json_value(budget));
        root.set("target_accuracy", json_value(target));
        root.set("chip_fault_rate", json_value(rate));
        root.set("headline_scenario", json_value(headline_scenario));
        root.set("recover_epochs_saved", json_value(headline_saved));
        root.set("verified", json_value(all_ok));
        root.set("rows", json_value(std::move(rows)));
        json_save_file(out_path, json_value(std::move(root)));
        std::cout << "wrote " << out_path << " (recover saves " << headline_saved
                  << " epochs on '" << headline_scenario << "')\n";

        if (!all_ok) {
            std::cerr << "error: timeline episodes mismatched the bitwise contract\n";
            return 1;
        }
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
