// Example: the coordinator side of the distributed sweep/retraining
// service.
//
// Serves a Step-1 sweep (--mode sweep, default) or a Steps-2+3 fleet
// retraining job (--mode fleet) to TCP workers, then writes the finished
// artifact. With --local it instead computes the same artifact on this
// machine alone — the reference for byte-identity checks: a distributed run
// with any worker count (and any worker deaths) writes the same bytes as
// --local with the same flags.
//
// Crash safety: with --journal <dir> every completed unit is made durable
// before it is acknowledged, so a coordinator killed mid-job (even -9) can
// be restarted with the same flags and the same --journal — it replays the
// finished units, serves only the remainder, and writes the byte-identical
// artifact. Workers started with --reconnect-ms ride the restart out.
// --chaos-seed interposes a deterministic faulty-transport proxy
// (dist/chaos.h) in front of the job; the proxied port is what --port-file
// advertises.
//
// Usage: reduce_coordinator [--mode sweep|fleet] [--tiny]
//          [--rates 0,0.1,...] [--repeats 3] [--budget 4] [--seed S]
//          [--scenario "strike@0.5:0.05;mode=recover;rollback=2"]
//          [--bind 127.0.0.1] [--port 0] [--port-file P] [--save out.json]
//          [--cache-dir D]
//          [--cells-per-lease 4] [--heartbeat-ms 500] [--lease-timeout-ms 10000]
//          [--drain-timeout-ms 1000] [--journal D] [--chaos-seed S]
//          [--local [--threads N]]
//          fleet mode: [--chips 6] [--constraint 0.9] [--policy reduce]
//          [--distribution uniform] [--rate-lo 0.02] [--rate-hi 0.28]
//          [--fleet-seed 77] [--table table.json]
//
// Workers must be started with the same job flags (--tiny/--rates/...);
// the handshake fingerprint enforces it.

#include <fstream>
#include <iostream>
#include <memory>

#include "core/policy.h"
#include "dist/chaos.h"
#include "dist/coordinator.h"
#include "dist_cli.h"
#include "util/log.h"
#include "util/stopwatch.h"

using namespace reduce;

namespace {

/// Fleet mode needs the Step-1 table for the policy: load it (--table) or
/// compute it locally on --threads workers.
resilience_table obtain_table(const std::string& table_path, std::size_t threads,
                              const std::string& cache_dir, workload& w,
                              const resilience_config& sweep_cfg) {
    if (!table_path.empty()) {
        std::cout << "loading resilience table from " << table_path << '\n';
        resilience_table table = resilience_table::from_json(json_load_file(table_path));
        REDUCE_CHECK(table.fingerprint() == resilience_fingerprint(sweep_cfg),
                     "--table was produced by a different sweep config");
        return table;
    }
    resilience_analyzer analyzer(*w.model, w.pretrained, w.train_data, w.test_data, w.array,
                                 w.trainer_cfg);
    sweep_options opts;
    opts.threads = threads;
    return run_resilience_sweep(analyzer, sweep_cfg, opts, cache_dir);
}

/// Writes the artifact to --save (no-op when absent).
void save_artifact(const std::string& path, const json_value& artifact) {
    if (path.empty()) { return; }
    json_save_file(path, artifact);
    std::cout << "artifact saved to " << path << '\n';
}

/// Publishes the endpoint workers should dial — the coordinator's own port,
/// or (with --chaos-seed) a chaos proxy fronting it — to stdout and
/// --port-file.
int publish_endpoint(std::uint64_t chaos_seed, const std::string& port_file,
                     int coord_port, std::unique_ptr<dist::chaos_proxy>& proxy) {
    int port = coord_port;
    if (chaos_seed != 0) {
        dist::chaos_config chaos;
        chaos.seed = chaos_seed;
        proxy = std::make_unique<dist::chaos_proxy>(chaos, "127.0.0.1",
                                                    [coord_port] { return coord_port; });
        proxy->start();
        port = proxy->port();
        std::cout << "chaos proxy (seed " << chaos_seed << ") fronting the job\n";
    }
    if (!port_file.empty()) {
        std::ofstream out(port_file);
        out << port << '\n';
    }
    std::cout << "serving on port " << port << "; waiting for workers\n";
    return port;
}

void print_recovery_stats(const dist::coordinator_stats& stats) {
    std::cout << "(" << stats.workers_admitted << " workers, " << stats.leases_granted
              << " leases, " << stats.leases_reassigned << " reassigned, "
              << stats.journal_units_replayed << " units replayed from journal, "
              << stats.workers_resumed << " sessions resumed, " << stats.stray_results
              << " stray results)\n";
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const cli_args args(argc, argv);
        set_log_level(log_level::info);
        stopwatch timer;

        const std::string mode = args.get("mode", "sweep");
        REDUCE_CHECK(mode == "sweep" || mode == "fleet",
                     "--mode must be sweep or fleet, got '" << mode << "'");
        const workload_config workload_cfg = dist_cli::make_cli_workload_config(args);
        const resilience_config sweep_cfg = dist_cli::make_cli_sweep_config(args, workload_cfg);

        dist::coordinator_config cc;
        cc.port = static_cast<int>(args.get_int("port", 0));
        cc.bind_address = args.get("bind", "127.0.0.1");
        cc.cells_per_lease = static_cast<std::size_t>(args.get_int("cells-per-lease", 4));
        cc.heartbeat_ms = static_cast<int>(args.get_int("heartbeat-ms", 500));
        cc.lease_timeout_ms = static_cast<int>(args.get_int("lease-timeout-ms", 10000));
        cc.drain_timeout_ms = static_cast<int>(args.get_int("drain-timeout-ms", 1000));
        cc.journal_dir = args.get("journal", "");
        const auto chaos_seed = static_cast<std::uint64_t>(args.get_int("chaos-seed", 0));
        const std::string port_file = args.get("port-file", "");
        const std::string save_path = args.get("save", "");
        const std::string cache_dir = args.get("cache-dir", "");
        const bool local = args.get_flag("local");
        const auto threads = static_cast<std::size_t>(args.get_int("threads", 1));

        // Fleet-mode options.
        const double constraint = args.get_double("constraint", 0.9);
        const std::string policy_name = args.get("policy", "reduce");
        const double fixed_epochs = args.get_double("fixed-epochs", 1.0);
        const std::string table_path = args.get("table", "");
        const fleet_config fleet_cfg = dist_cli::make_cli_fleet_config(args);
        args.reject_unread_options();

        std::cout << "== Reduce distributed coordinator (" << mode << " job) ==\n";
        workload w = make_standard_workload(workload_cfg);
        std::cout << "job fingerprint: " << resilience_fingerprint(sweep_cfg) << '\n';

        if (mode == "sweep") {
            if (local) {
                resilience_analyzer analyzer(*w.model, w.pretrained, w.train_data,
                                             w.test_data, w.array, w.trainer_cfg);
                sweep_options opts;
                opts.threads = threads;
                const resilience_table table =
                    run_resilience_sweep(analyzer, sweep_cfg, opts, cache_dir);
                std::cout << "local sweep: " << table.runs().size() << " cells in "
                          << timer.seconds() << " s\n";
                save_artifact(save_path, table.to_json());
                return 0;
            }
            dist::sweep_job job;
            job.cfg = sweep_cfg;
            job.cache_dir = cache_dir;
            dist::coordinator coord(cc, std::move(job));
            coord.start();
            std::unique_ptr<dist::chaos_proxy> proxy;
            publish_endpoint(chaos_seed, port_file, coord.port(), proxy);
            const resilience_table table = coord.wait_table();
            const dist::coordinator_stats stats = coord.stats();
            std::cout << "distributed sweep: " << table.runs().size() << " cells in "
                      << timer.seconds() << " s ";
            print_recovery_stats(stats);
            save_artifact(save_path, table.to_json());
            return 0;
        }

        // Fleet mode: Step 1 table -> policy -> centrally planned job.
        const resilience_table table = obtain_table(table_path, threads, cache_dir, w, sweep_cfg);
        policy_context ctx;
        ctx.table = &table;
        ctx.selector.accuracy_target = constraint;
        ctx.selector.stat = statistic::max;
        ctx.fixed_epochs = fixed_epochs;
        const auto policy = policy_registry::global().make(policy_name, ctx);
        std::vector<chip> fleet = make_fleet(w.array, fleet_cfg);
        std::cout << "fleet of " << fleet.size() << " chips, policy '" << policy_name
                  << "', constraint " << constraint * 100.0 << "%\n";

        if (local) {
            fleet_executor executor(
                *w.model, w.pretrained, w.train_data, w.test_data, w.array, w.trainer_cfg,
                fleet_executor_config{.threads = threads, .scenario = sweep_cfg.scenario});
            const policy_outcome outcome = executor.run(*policy, fleet);
            std::cout << "local fleet run: " << outcome.chips.size() << " chips in "
                      << timer.seconds() << " s\n";
            save_artifact(save_path, dist_cli::policy_outcome_to_json(outcome));
            return 0;
        }

        dist::fleet_job job =
            dist::plan_fleet_job(*w.model, w.array, *policy, std::move(fleet));
        cc.fingerprint = resilience_fingerprint(sweep_cfg);
        dist::coordinator coord(cc, std::move(job));
        coord.start();
        std::unique_ptr<dist::chaos_proxy> proxy;
        publish_endpoint(chaos_seed, port_file, coord.port(), proxy);
        const policy_outcome outcome = coord.wait_fleet();
        const dist::coordinator_stats stats = coord.stats();
        std::cout << "distributed fleet run: " << outcome.chips.size() << " chips in "
                  << timer.seconds() << " s ";
        print_recovery_stats(stats);
        save_artifact(save_path, dist_cli::policy_outcome_to_json(outcome));
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
