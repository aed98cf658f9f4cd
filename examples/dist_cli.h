// Shared CLI plumbing of the distributed-service binaries
// (reduce_coordinator / reduce_worker).
//
// The whole distributed design rests on SYMMETRIC CONSTRUCTION: the sweep
// config never crosses the wire — coordinator and workers each build it
// from their own command line, and the handshake fingerprint
// (resilience_fingerprint, which transitively names the workload, grid,
// fault model, seed, and schema version) proves they built the same thing.
// Keeping the flag parsing in one header makes "same flags → same job" a
// structural property instead of a convention: start every worker with the
// same --tiny/--rates/--repeats/--budget/--seed values as its coordinator.
#pragma once

#include <chrono>
#include <fstream>
#include <string>
#include <thread>

#include "core/fleet_executor.h"
#include "core/resilience.h"
#include "core/workload.h"
#include "dist/protocol.h"
#include "fault/chip.h"
#include "util/cli.h"
#include "util/error.h"

namespace reduce::dist_cli {

/// The workload both ends train on. --tiny selects the test-sized workload
/// (fast enough for CI smoke runs); default is the standard paper workload.
inline workload_config make_cli_workload_config(const cli_args& args) {
    return args.get_flag("tiny") ? make_test_workload_config() : workload_config{};
}

/// The fault-event timeline, parsed from --scenario (the scenario grammar
/// of fault/scenario.h, e.g. "strike@0.5:0.05;mode=recover;rollback=2").
/// Empty when the flag is absent. Shared by the distributed binaries and
/// the figure harnesses so one spelling drives every path.
inline scenario_config make_cli_scenario(const cli_args& args) {
    const std::string spec = args.get("scenario", "");
    if (spec.empty()) { return scenario_config{}; }
    return parse_scenario(spec);
}

/// The Step-1 sweep grid. Every value here feeds the fingerprint, so a
/// worker started with different flags is rejected at handshake — including
/// --scenario, which appends to the fingerprint only when non-empty (legacy
/// scenario-free jobs keep their historical fingerprints and journals).
inline resilience_config make_cli_sweep_config(const cli_args& args,
                                               const workload_config& workload_cfg) {
    resilience_config cfg;
    cfg.fault_rates = args.get_double_list("rates", {0.0, 0.1, 0.2, 0.3});
    cfg.repeats = static_cast<std::size_t>(args.get_int("repeats", 3));
    cfg.max_epochs = args.get_double("budget", 4.0);
    cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 20230305));
    cfg.context = workload_context(workload_cfg);
    cfg.scenario = make_cli_scenario(args);
    return cfg;
}

/// The fleet (fleet mode only). Deterministic from the flags, so the
/// coordinator's ledger and any --local reference run agree chip for chip.
inline fleet_config make_cli_fleet_config(const cli_args& args) {
    fleet_config cfg;
    cfg.num_chips = static_cast<std::size_t>(args.get_int("chips", 6));
    cfg.distribution = rate_distribution_from_string(args.get("distribution", "uniform"));
    cfg.rate_lo = args.get_double("rate-lo", 0.02);
    cfg.rate_hi = args.get_double("rate-hi", 0.28);
    cfg.seed = static_cast<std::uint64_t>(args.get_int("fleet-seed", 77));
    return cfg;
}

/// Fleet outcomes as a stable JSON document — what --save writes in fleet
/// mode, byte-comparable between the serial and distributed paths.
inline json_value policy_outcome_to_json(const policy_outcome& outcome) {
    json_object doc;
    doc.set("policy", json_value(outcome.policy_name));
    doc.set("accuracy_constraint", json_value(outcome.accuracy_constraint));
    json_array chips;
    chips.reserve(outcome.chips.size());
    for (const chip_outcome& c : outcome.chips) {
        chips.push_back(dist::chip_outcome_to_json(c));
    }
    doc.set("chips", json_value(std::move(chips)));
    return json_value(std::move(doc));
}

/// One non-blocking look at --port/--port-file: the coordinator port as of
/// right now, or 0 when it is not knowable yet. The re-resolution primitive
/// behind worker reconnects — a restarted coordinator binds a fresh
/// ephemeral port and rewrites its --port-file, and the next read sees it.
inline int try_read_port(int port, const std::string& port_file) {
    if (port != 0) { return port; }
    if (port_file.empty()) { return 0; }
    std::ifstream file(port_file);
    int value = 0;
    if (file >> value && value > 0) { return value; }
    return 0;
}

/// Resolves the coordinator port: --port when given, else poll --port-file
/// until the coordinator writes its (possibly ephemeral) bound port there.
inline int resolve_port(int port, const std::string& port_file) {
    REDUCE_CHECK(port != 0 || !port_file.empty(),
                 "need --port or --port-file to find the coordinator");
    for (int attempt = 0; attempt < 100; ++attempt) {
        const int value = try_read_port(port, port_file);
        if (value > 0) { return value; }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    throw error("no port appeared in " + port_file);
}

}  // namespace reduce::dist_cli
