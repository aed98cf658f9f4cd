// Example: the worker side of the distributed sweep/retraining service.
//
// Builds the SAME workload and sweep config as its coordinator (pass the
// same --tiny/--rates/--repeats/--budget/--seed flags — the handshake
// fingerprint enforces it), connects, and serves leased work units until
// the coordinator shuts the job down. Run any number of these, on this
// machine or others, against one reduce_coordinator.
//
// A worker survives its coordinator: on a mid-job transport loss it backs
// off, re-reads --port-file (a restarted coordinator writes a fresh port
// there), re-handshakes, and continues — until --reconnect-ms burns with no
// session. --chaos-seed interposes a deterministic faulty-transport proxy
// (dist/chaos.h) between this worker and the coordinator, for crash/
// recovery drills like CI's chaos-smoke job.
//
// Usage: reduce_worker [--host 127.0.0.1] (--port N | --port-file P)
//          [--name worker-0] [--tiny]
//          [--rates 0,0.1,...] [--repeats 3] [--budget 4] [--seed S]
//          [--reconnect-ms 10000]  per-outage budget to rejoin; 0 disables
//          [--chaos-seed S]  batter this worker's wire deterministically
//          [--die-after N]   failure injection: vanish mid-lease at unit N

#include <iostream>
#include <memory>

#include "dist/chaos.h"
#include "dist/worker.h"
#include "dist_cli.h"
#include "util/log.h"
#include "util/stopwatch.h"

using namespace reduce;

int main(int argc, char** argv) {
    try {
        const cli_args args(argc, argv);
        set_log_level(log_level::info);
        stopwatch timer;

        const workload_config workload_cfg = dist_cli::make_cli_workload_config(args);
        const resilience_config sweep_cfg = dist_cli::make_cli_sweep_config(args, workload_cfg);

        dist::worker_config wc;
        wc.host = args.get("host", "127.0.0.1");
        const int port = static_cast<int>(args.get_int("port", 0));
        const std::string port_file = args.get("port-file", "");
        wc.name = args.get("name", "worker");
        wc.reconnect_deadline_ms = static_cast<int>(args.get_int("reconnect-ms", 10000));
        wc.die_after_units = static_cast<std::size_t>(args.get_int("die-after", 0));
        const auto chaos_seed = static_cast<std::uint64_t>(args.get_int("chaos-seed", 0));
        args.reject_unread_options();

        workload w = make_standard_workload(workload_cfg);
        wc.port = dist_cli::resolve_port(port, port_file);

        std::cout << "== Reduce distributed worker '" << wc.name << "' ==\n"
                  << "coordinator " << wc.host << ":" << wc.port << ", fingerprint "
                  << resilience_fingerprint(sweep_cfg) << '\n';

        std::unique_ptr<dist::chaos_proxy> proxy;
        if (chaos_seed != 0) {
            // The proxy is this worker's stable endpoint; it re-resolves the
            // coordinator (the port file again) per upstream connect, so it
            // keeps working across coordinator restarts.
            dist::chaos_config chaos;
            chaos.seed = chaos_seed;
            proxy = std::make_unique<dist::chaos_proxy>(
                chaos, wc.host, [&] { return dist_cli::try_read_port(port, port_file); });
            proxy->start();
            std::cout << "chaos proxy (seed " << chaos_seed << ") on port "
                      << proxy->port() << '\n';
            wc.host = "127.0.0.1";
            wc.port = proxy->port();
        } else {
            // Reconnects re-read the port file directly — a restarted
            // coordinator publishes a fresh port there.
            wc.port_resolver = [&] { return dist_cli::try_read_port(port, port_file); };
        }

        dist::worker node(wc, *w.model, w.pretrained, w.train_data, w.test_data, w.array,
                          w.trainer_cfg, sweep_cfg);
        const dist::worker_report report = node.run();

        if (report.rejected) {
            std::cerr << "rejected by the coordinator: " << report.reject_reason << '\n';
            return 1;
        }
        std::cout << "worker done in " << timer.seconds() << " s: " << report.cells
                  << " sweep cells, " << report.chips << " chips, " << report.reconnects
                  << " reconnects" << (report.shutdown_received ? " (job complete)" : "")
                  << (report.connection_lost ? " (coordinator gone)" : "") << '\n';
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
