// End-to-end loopback tests of the distributed sweep/retraining service:
// coordinator + in-process workers over real 127.0.0.1 sockets. The load-
// bearing claim is byte-identity — any worker count, worker deaths included,
// must reproduce the single-machine artifact exactly — plus the fault paths:
// mid-lease death → lease reassignment, silent workers → heartbeat-deadline
// revocation, fingerprint or version mismatch → handshake rejection,
// garbage frames and malformed results → connection drop without taking
// the job down.
#include <gtest/gtest.h>
#include <poll.h>

#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/fleet_executor.h"
#include "core/policy.h"
#include "core/workload.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "fault/chip.h"
#include "nn/serialize.h"
#include "util/error.h"

namespace reduce {
namespace {

resilience_config small_config() {
    resilience_config cfg;
    cfg.fault_rates = {0.0, 0.3};
    cfg.repeats = 2;  // 4-cell grid: enough to spread over 4 workers
    cfg.max_epochs = 0.5;
    cfg.seed = 77;
    cfg.context = "dist-test-workload";
    return cfg;
}

/// Minimal protocol-speaking client for tests that need misbehavior a real
/// worker cannot produce (going silent mid-lease, sending garbage).
struct raw_client {
    dist::tcp_socket sock;
    dist::frame_decoder decoder;

    explicit raw_client(int port)
        : sock(dist::tcp_socket::connect_to("127.0.0.1", port)) {}

    void send(const json_value& message) { sock.send_all(dist::encode_frame(message)); }

    /// The next message; throws when none arrives within 10 s (a dead
    /// event loop must fail the test, not hang it).
    json_value read() {
        for (;;) {
            if (std::optional<json_value> message = decoder.next()) { return *message; }
            ::pollfd p{sock.fd(), POLLIN, 0};
            REDUCE_CHECK(::poll(&p, 1, 10000) == 1, "no message from the coordinator in 10 s");
            char buf[4096];
            const dist::tcp_socket::recv_result r = sock.recv_some(buf, sizeof buf);
            REDUCE_CHECK(!r.closed, "coordinator closed the raw client's connection");
            if (!r.would_block) { decoder.feed(buf, r.bytes); }
        }
    }
};

/// Polls a condition with a deadline — for asserting on coordinator stats
/// that the event loop updates asynchronously.
template <typename Pred>
bool eventually(Pred pred, int timeout_ms = 5000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (!pred()) {
        if (std::chrono::steady_clock::now() >= deadline) { return false; }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return true;
}

/// Startup gate for a sweep of `units` work units: handshakes and leases
/// every unit (one request_work each), so the real workers are parked
/// until the gate closes, which requeues its leases. Closing it only once
/// every expected worker is admitted keeps a job that takes a few ms from
/// finishing before the last worker dials.
std::optional<raw_client> open_gate(int port, std::size_t units) {
    std::optional<raw_client> gate(std::in_place, port);
    gate->send(dist::make_hello(resilience_fingerprint(small_config()), "gate"));
    EXPECT_EQ(dist::message_type(gate->read()), "welcome");
    for (std::size_t u = 0; u < units; ++u) {
        gate->send(dist::make_request_work());
        EXPECT_EQ(dist::message_type(gate->read()), "work");
    }
    return gate;
}

class DistFixture : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        shared_ = new workload(make_standard_workload(make_test_workload_config()));
    }
    static void TearDownTestSuite() {
        delete shared_;
        shared_ = nullptr;
    }
    workload& w() { return *shared_; }

    /// The single-machine Step-1 artifact every distributed run must match
    /// byte for byte (computed once, shared across tests).
    const std::string& serial_sweep_bytes() {
        static std::string reference;
        if (reference.empty()) {
            resilience_analyzer analyzer(*w().model, w().pretrained, w().train_data,
                                         w().test_data, w().array, w().trainer_cfg);
            reference = analyzer.analyze(small_config()).to_json().dump();
        }
        return reference;
    }

    dist::worker_config worker_config_for(int port, const std::string& name) {
        dist::worker_config wc;
        wc.port = port;
        wc.name = name;
        return wc;
    }

    /// Runs `configs.size()` workers concurrently against one coordinator
    /// and returns their reports in config order.
    std::vector<dist::worker_report> run_workers(
        const std::vector<dist::worker_config>& configs) {
        std::vector<dist::worker_report> reports(configs.size());
        std::vector<std::thread> threads;
        threads.reserve(configs.size());
        for (std::size_t i = 0; i < configs.size(); ++i) {
            threads.emplace_back([this, &configs, &reports, i] {
                dist::worker node(configs[i], *w().model, w().pretrained, w().train_data,
                                  w().test_data, w().array, w().trainer_cfg,
                                  small_config());
                reports[i] = node.run();
            });
        }
        for (std::thread& t : threads) { t.join(); }
        return reports;
    }

    static workload* shared_;
};

workload* DistFixture::shared_ = nullptr;

TEST_F(DistFixture, SweepIsByteIdenticalAtAnyWorkerCount) {
    for (const std::size_t worker_count : {1u, 2u, 4u}) {
        dist::coordinator_config cc;
        cc.cells_per_lease = 1;  // 4 units — real distribution at 4 workers
        dist::coordinator coord(cc, dist::sweep_job{small_config(), ""});
        coord.start();
        std::optional<raw_client> gate = open_gate(coord.port(), 4);

        std::vector<dist::worker_config> configs;
        for (std::size_t i = 0; i < worker_count; ++i) {
            configs.push_back(
                worker_config_for(coord.port(), "w" + std::to_string(i)));
        }
        std::vector<dist::worker_report> reports;
        std::thread workers([&] { reports = run_workers(configs); });
        EXPECT_TRUE(eventually([&] { return coord.stats().workers_admitted == worker_count + 1; }))
            << worker_count << " workers were not all admitted";
        gate.reset();
        const resilience_table table = coord.wait_table();
        workers.join();

        EXPECT_EQ(table.to_json().dump(), serial_sweep_bytes())
            << worker_count << " workers diverged from the serial sweep";
        std::size_t total_cells = 0;
        for (const dist::worker_report& report : reports) {
            EXPECT_FALSE(report.rejected);
            total_cells += report.cells;
        }
        EXPECT_EQ(total_cells, 4u) << worker_count << " workers";
        const dist::coordinator_stats stats = coord.stats();
        EXPECT_EQ(stats.workers_admitted, worker_count + 1);  // the workers and the gate
        EXPECT_EQ(stats.workers_rejected, 0u);
        EXPECT_GE(stats.leases_granted, 8u);  // the gate's 4, then the workers' 4
        EXPECT_EQ(stats.duplicate_results, 0u);
    }
}

TEST_F(DistFixture, WorkerDeathMidLeaseIsReassignedByteIdentically) {
    dist::coordinator_config cc;
    cc.cells_per_lease = 1;
    dist::coordinator coord(cc, dist::sweep_job{small_config(), ""});
    coord.start();
    std::optional<raw_client> gate = open_gate(coord.port(), 4);

    // The doomed worker vanishes upon receiving its first unit — the
    // in-process stand-in for SIGKILL with the lease held. The survivor
    // must absorb the re-queued unit and the artifact must not change.
    dist::worker_config doomed = worker_config_for(coord.port(), "doomed");
    doomed.die_after_units = 1;
    dist::worker_config survivor = worker_config_for(coord.port(), "survivor");

    std::vector<dist::worker_report> reports;
    std::thread workers([&] { reports = run_workers({doomed, survivor}); });
    EXPECT_TRUE(eventually([&] { return coord.stats().workers_admitted == 3; }))
        << "the doomed worker and the survivor were not both admitted";
    gate.reset();
    const resilience_table table = coord.wait_table();
    workers.join();

    EXPECT_EQ(table.to_json().dump(), serial_sweep_bytes());
    EXPECT_TRUE(reports[0].died);
    EXPECT_EQ(reports[0].cells, 0u);
    EXPECT_EQ(reports[1].cells, 4u);  // all units, including the revoked one
    // The gate's 4 leases, then at least the doomed worker's.
    EXPECT_GE(coord.stats().leases_reassigned, 5u);
}

TEST_F(DistFixture, SilentWorkerMissesHeartbeatDeadlineAndLosesItsLease) {
    dist::coordinator_config cc;
    cc.cells_per_lease = 1;
    cc.heartbeat_ms = 50;
    cc.lease_timeout_ms = 300;
    dist::coordinator coord(cc, dist::sweep_job{small_config(), ""});
    coord.start();

    // A protocol-fluent client takes a lease, then stops heartbeating
    // without closing its socket — the straggler/hung-process case that
    // only the deadline (not a connection error) can catch.
    raw_client silent(coord.port());
    silent.send(dist::make_hello(resilience_fingerprint(small_config()), "silent"));
    EXPECT_EQ(dist::message_type(silent.read()), "welcome");
    silent.send(dist::make_request_work());
    const json_value work = silent.read();
    ASSERT_EQ(dist::message_type(work), "work");

    std::vector<dist::worker_report> reports;
    std::thread workers(
        [&] { reports = run_workers({worker_config_for(coord.port(), "live")}); });
    const resilience_table table = coord.wait_table();
    workers.join();

    EXPECT_EQ(table.to_json().dump(), serial_sweep_bytes());
    EXPECT_EQ(reports[0].cells, 4u);
    EXPECT_GE(coord.stats().leases_reassigned, 1u);
}

TEST_F(DistFixture, MismatchedFingerprintIsRejectedAtHandshake) {
    dist::coordinator_config cc;
    dist::coordinator coord(cc, dist::sweep_job{small_config(), ""});
    coord.start();

    dist::worker_config imposter = worker_config_for(coord.port(), "imposter");
    imposter.fingerprint = "0123456789abcdef0123456789abcdef";  // wrong job
    dist::worker_config honest = worker_config_for(coord.port(), "honest");

    std::vector<dist::worker_report> reports;
    std::thread workers([&] { reports = run_workers({imposter, honest}); });
    const resilience_table table = coord.wait_table();
    workers.join();

    EXPECT_EQ(table.to_json().dump(), serial_sweep_bytes());
    EXPECT_TRUE(reports[0].rejected);
    EXPECT_FALSE(reports[0].reject_reason.empty());
    EXPECT_EQ(reports[0].cells, 0u);
    EXPECT_FALSE(reports[1].rejected);
    const dist::coordinator_stats stats = coord.stats();
    EXPECT_EQ(stats.workers_rejected, 1u);
    EXPECT_EQ(stats.workers_admitted, 1u);
}

TEST_F(DistFixture, MixedVersionPeerIsRejectedAtHandshake) {
    dist::coordinator_config cc;
    dist::coordinator coord(cc, dist::sweep_job{small_config(), ""});
    coord.start();

    // A previous-revision peer with the right fingerprint: only the version
    // differs, so only the version branch can reject it.
    json_value hello = dist::make_hello(resilience_fingerprint(small_config()), "old-peer");
    json_object fields = hello.as_object();
    fields.set("version", json_value(dist::protocol_version - 1));
    raw_client old_peer(coord.port());
    old_peer.send(json_value(std::move(fields)));
    const json_value reply = old_peer.read();
    ASSERT_EQ(dist::message_type(reply), "reject");
    const std::string& reason = reply.as_object().at("reason").as_string();
    EXPECT_NE(reason.find(std::to_string(dist::protocol_version - 1)), std::string::npos)
        << reason;
    EXPECT_NE(reason.find(std::to_string(dist::protocol_version)), std::string::npos) << reason;
    EXPECT_TRUE(eventually([&] { return coord.stats().workers_rejected == 1; }));
    EXPECT_EQ(coord.stats().workers_admitted, 0u);
}

TEST_F(DistFixture, GarbageFramesDropTheConnectionNotTheJob) {
    dist::coordinator_config cc;
    dist::coordinator coord(cc, dist::sweep_job{small_config(), ""});
    coord.start();

    // Unparseable payload behind a valid length prefix.
    dist::tcp_socket junk = dist::tcp_socket::connect_to("127.0.0.1", coord.port());
    junk.send_all(std::string("\x00\x00\x00\x04junk", 8));
    // Garbage length prefix (a peer not speaking this protocol at all) —
    // must be rejected from the header, never buffered to 4 GiB.
    dist::tcp_socket noise = dist::tcp_socket::connect_to("127.0.0.1", coord.port());
    noise.send_all(std::string("\xff\xff\xff\xff", 4));
    // Valid handshake, then a message that is never legal at that point.
    raw_client confused(coord.port());
    confused.send(dist::make_hello(resilience_fingerprint(small_config()), "confused"));
    EXPECT_EQ(dist::message_type(confused.read()), "welcome");
    confused.send(dist::make_heartbeat(424242));  // unknown lease

    EXPECT_TRUE(eventually([&] { return coord.stats().connections_dropped >= 3; }))
        << "coordinator did not shed the misbehaving connections";
    EXPECT_GE(coord.stats().frames_rejected, 3u);

    // The job itself must be unharmed: a well-behaved worker finishes it
    // and the artifact is still byte-identical.
    std::vector<dist::worker_report> reports;
    std::thread workers(
        [&] { reports = run_workers({worker_config_for(coord.port(), "clean")}); });
    const resilience_table table = coord.wait_table();
    workers.join();
    EXPECT_EQ(table.to_json().dump(), serial_sweep_bytes());
    EXPECT_EQ(reports[0].cells, 4u);
}

/// Handshakes a raw client and takes one lease; returns its id.
std::uint64_t take_lease(raw_client& client, const std::string& name) {
    client.send(dist::make_hello(resilience_fingerprint(small_config()), name));
    EXPECT_EQ(dist::message_type(client.read()), "welcome");
    client.send(dist::make_request_work());
    const json_value work = client.read();
    EXPECT_EQ(dist::message_type(work), "work");
    return std::stoull(work.as_object().at("lease").as_string());
}

TEST_F(DistFixture, MalformedSweepResultDropsTheConnectionNotTheJob) {
    dist::coordinator_config cc;
    cc.cells_per_lease = 2;  // 2 units
    dist::coordinator coord(cc, dist::sweep_job{small_config(), ""});
    coord.start();

    // Well-framed results whose tables fail the decoder: no runs, and a
    // repeat that is not an integer. Each must cost its sender the
    // connection and re-queue the unit — never fail the job.
    const std::vector<std::string> tables = {
        R"({"max_epochs":1,"runs":[]})",
        R"({"max_epochs":0.5,"runs":[{"fault_rate":0,"repeat":0.5,"map_seed":"1",)"
        R"("masked_weight_fraction":0,"trajectory":[{"epochs":0,"accuracy":0.5}]}]})"};
    std::vector<raw_client> liars;
    for (std::size_t i = 0; i < tables.size(); ++i) {
        liars.emplace_back(coord.port());
        const std::uint64_t lease = take_lease(liars.back(), "liar" + std::to_string(i));
        liars.back().send(dist::make_sweep_result(lease, json_parse(tables[i])));
    }
    EXPECT_TRUE(eventually([&] { return coord.stats().frames_rejected >= tables.size(); }))
        << "coordinator did not reject the malformed results";

    std::vector<dist::worker_report> reports;
    std::thread workers(
        [&] { reports = run_workers({worker_config_for(coord.port(), "honest")}); });
    const resilience_table table = coord.wait_table();
    workers.join();
    EXPECT_EQ(table.to_json().dump(), serial_sweep_bytes());
    const dist::coordinator_stats stats = coord.stats();
    EXPECT_GE(stats.frames_rejected, 1u);
    EXPECT_GE(stats.leases_reassigned, 1u);
}

TEST_F(DistFixture, MalformedFleetResultDropsTheConnectionNotTheJob) {
    fleet_config fc;
    fc.num_chips = 2;
    fc.rate_lo = 0.05;
    fc.rate_hi = 0.3;
    fc.seed = 91;
    const std::vector<chip> fleet = make_fleet(w().array, fc);
    const fixed_policy policy(0.5, 0.85);
    fleet_executor executor(*w().model, w().pretrained, w().train_data, w().test_data,
                            w().array, w().trainer_cfg);
    const policy_outcome serial = executor.run(policy, fleet);

    dist::coordinator_config cc;
    cc.fingerprint = resilience_fingerprint(small_config());
    dist::coordinator coord(cc, dist::plan_fleet_job(*w().model, w().array, policy, fleet));
    coord.start();

    // Outcomes that fail decoding or validation: a chip id that is not an
    // integer, and one naming a chip outside the lease.
    std::vector<raw_client> liars;
    for (const double chip_id : {0.5, 1e6}) {
        liars.emplace_back(coord.port());
        const std::uint64_t lease =
            take_lease(liars.back(), "liar" + std::to_string(liars.size()));
        json_object result = dist::make_chip_result(lease, serial.chips[0], "").as_object();
        json_object outcome = result.at("outcome").as_object();
        outcome.set("chip_id", json_value(chip_id));
        result.set("outcome", json_value(std::move(outcome)));
        liars.back().send(json_value(std::move(result)));
    }
    EXPECT_TRUE(eventually([&] { return coord.stats().frames_rejected >= liars.size(); }))
        << "coordinator did not reject the malformed results";

    std::vector<dist::worker_report> reports;
    std::thread workers(
        [&] { reports = run_workers({worker_config_for(coord.port(), "honest")}); });
    const policy_outcome distributed = coord.wait_fleet();
    workers.join();
    ASSERT_EQ(distributed.chips.size(), serial.chips.size());
    for (std::size_t i = 0; i < serial.chips.size(); ++i) {
        EXPECT_EQ(dist::chip_outcome_to_json(distributed.chips[i]).dump(),
                  dist::chip_outcome_to_json(serial.chips[i]).dump())
            << "chip " << i;
    }
    const dist::coordinator_stats stats = coord.stats();
    EXPECT_GE(stats.frames_rejected, 1u);
    EXPECT_GE(stats.leases_reassigned, 1u);
}

TEST_F(DistFixture, StopBeforeCompletionFailsWaiters) {
    dist::coordinator coord(dist::coordinator_config{},
                            dist::sweep_job{small_config(), ""});
    coord.start();
    coord.stop();
    EXPECT_THROW((void)coord.wait_table(), error);
}

TEST_F(DistFixture, FleetJobMatchesSerialExecutorOutcomesAndSnapshots) {
    fleet_config fc;
    fc.num_chips = 4;
    fc.rate_lo = 0.05;
    fc.rate_hi = 0.3;
    fc.seed = 91;
    const std::vector<chip> fleet = make_fleet(w().array, fc);
    const fixed_policy policy(0.5, 0.85);

    // Serial reference: outcomes plus the tuned snapshots in fleet order.
    fleet_executor executor(*w().model, w().pretrained, w().train_data, w().test_data,
                            w().array, w().trainer_cfg);
    std::vector<std::string> serial_snaps;
    executor.set_model_sink([&](const chip&, const model_snapshot& snap) {
        serial_snaps.push_back(snapshot_to_bytes(snap));
    });
    const policy_outcome serial = executor.run(policy, fleet);
    ASSERT_EQ(serial_snaps.size(), fleet.size());

    dist::fleet_job job = dist::plan_fleet_job(*w().model, w().array, policy, fleet);
    job.collect_snapshots = true;
    dist::coordinator_config cc;
    cc.fingerprint = resilience_fingerprint(small_config());
    dist::coordinator coord(cc, std::move(job));
    std::vector<std::string> dist_snaps;
    std::vector<std::size_t> sink_chip_ids;
    coord.set_model_sink([&](const chip& c, const model_snapshot& snap) {
        sink_chip_ids.push_back(c.id);
        dist_snaps.push_back(snapshot_to_bytes(snap));
    });
    coord.start();

    std::vector<dist::worker_report> reports;
    std::thread workers([&] {
        reports = run_workers({worker_config_for(coord.port(), "f0"),
                               worker_config_for(coord.port(), "f1")});
    });
    const policy_outcome distributed = coord.wait_fleet();
    workers.join();

    EXPECT_EQ(distributed.policy_name, serial.policy_name);
    EXPECT_EQ(distributed.accuracy_constraint, serial.accuracy_constraint);
    ASSERT_EQ(distributed.chips.size(), serial.chips.size());
    for (std::size_t i = 0; i < serial.chips.size(); ++i) {
        const chip_outcome& a = serial.chips[i];
        const chip_outcome& b = distributed.chips[i];
        EXPECT_EQ(a.chip_id, b.chip_id) << "chip " << i;
        // Bit-level equality is the contract: both paths run the same float
        // operations in the same order, the wire adds nothing.
        EXPECT_EQ(a.nominal_fault_rate, b.nominal_fault_rate) << "chip " << i;
        EXPECT_EQ(a.effective_fault_rate, b.effective_fault_rate) << "chip " << i;
        EXPECT_EQ(a.masked_weight_fraction, b.masked_weight_fraction) << "chip " << i;
        EXPECT_EQ(a.epochs_allocated, b.epochs_allocated) << "chip " << i;
        EXPECT_EQ(a.epochs_run, b.epochs_run) << "chip " << i;
        EXPECT_EQ(a.accuracy_before, b.accuracy_before) << "chip " << i;
        EXPECT_EQ(a.final_accuracy, b.final_accuracy) << "chip " << i;
        EXPECT_EQ(a.meets_constraint, b.meets_constraint) << "chip " << i;
        EXPECT_EQ(a.selection_failed, b.selection_failed) << "chip " << i;
    }
    ASSERT_EQ(dist_snaps.size(), serial_snaps.size());
    for (std::size_t i = 0; i < serial_snaps.size(); ++i) {
        EXPECT_EQ(sink_chip_ids[i], fleet[i].id) << "sink order broke at " << i;
        EXPECT_EQ(dist_snaps[i], serial_snaps[i]) << "snapshot " << i << " diverged";
    }
    std::size_t total_chips = 0;
    for (const dist::worker_report& report : reports) { total_chips += report.chips; }
    EXPECT_EQ(total_chips, fleet.size());
}

TEST_F(DistFixture, ScenarioSweepIsByteIdenticalDistributedVsLocal) {
    // A live fault-event timeline must not cost a single byte of the
    // distributed determinism contract: event contents derive from
    // (scenario, cell coordinates), never from which worker runs the cell
    // or how leases interleave.
    resilience_config cfg = small_config();
    cfg.scenario = parse_scenario("strike@0.2:0.05;accrue@0.35:0.03;seed=5");

    resilience_analyzer analyzer(*w().model, w().pretrained, w().train_data, w().test_data,
                                 w().array, w().trainer_cfg);
    const std::string reference = analyzer.analyze(cfg, {}).to_json().dump();

    dist::coordinator_config cc;
    cc.cells_per_lease = 1;
    dist::coordinator coord(cc, dist::sweep_job{cfg, ""});
    coord.start();

    std::vector<dist::worker_report> reports(2);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < reports.size(); ++i) {
        threads.emplace_back([&, i] {
            dist::worker node(worker_config_for(coord.port(), "s" + std::to_string(i)),
                              *w().model, w().pretrained, w().train_data, w().test_data,
                              w().array, w().trainer_cfg, cfg);
            reports[i] = node.run();
        });
    }
    const resilience_table table = coord.wait_table();
    for (std::thread& t : threads) { t.join(); }

    EXPECT_EQ(table.to_json().dump(), reference)
        << "scenario sweep diverged between distributed and local";
    for (const dist::worker_report& report : reports) { EXPECT_FALSE(report.rejected); }

    // The scenario feeds the fingerprint: a scenario-free worker must be
    // turned away at the handshake, not silently compute different science.
    dist::coordinator coord2(cc, dist::sweep_job{cfg, ""});
    coord2.start();
    dist::worker_report mismatched;
    dist::worker_report honest;
    std::thread wrong([&] {
        dist::worker node(worker_config_for(coord2.port(), "no-scenario"), *w().model,
                          w().pretrained, w().train_data, w().test_data, w().array,
                          w().trainer_cfg, small_config());
        mismatched = node.run();
    });
    std::thread right([&] {
        dist::worker node(worker_config_for(coord2.port(), "with-scenario"), *w().model,
                          w().pretrained, w().train_data, w().test_data, w().array,
                          w().trainer_cfg, cfg);
        honest = node.run();
    });
    const resilience_table table2 = coord2.wait_table();
    wrong.join();
    right.join();
    EXPECT_TRUE(mismatched.rejected);
    EXPECT_FALSE(honest.rejected);
    EXPECT_EQ(table2.to_json().dump(), reference);
}

TEST_F(DistFixture, ScenarioFleetJobMatchesSerialExecutorTimelineCounters) {
    // Per-chip timelines across the wire: distributed fleet retraining
    // under a strike scenario must reproduce the local executor's outcomes
    // bit for bit, INCLUDING the new timeline accounting fields (which ride
    // the chip_outcome JSON only when nonzero).
    fleet_config fc;
    fc.num_chips = 4;
    fc.rate_lo = 0.05;
    fc.rate_hi = 0.3;
    fc.seed = 91;
    const std::vector<chip> fleet = make_fleet(w().array, fc);
    const fixed_policy policy(0.5, 0.85);
    resilience_config cfg = small_config();
    cfg.scenario = parse_scenario("strike@0.2:0.05");

    fleet_executor executor(*w().model, w().pretrained, w().train_data, w().test_data,
                            w().array, w().trainer_cfg,
                            fleet_executor_config{.scenario = cfg.scenario});
    const policy_outcome serial = executor.run(policy, fleet);
    EXPECT_GE(executor.last_run_stats().timeline_events, fleet.size());

    dist::fleet_job job = dist::plan_fleet_job(*w().model, w().array, policy, fleet);
    dist::coordinator_config cc;
    cc.fingerprint = resilience_fingerprint(cfg);
    dist::coordinator coord(cc, std::move(job));
    coord.start();

    std::vector<dist::worker_report> reports(2);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < reports.size(); ++i) {
        threads.emplace_back([&, i] {
            dist::worker node(worker_config_for(coord.port(), "sf" + std::to_string(i)),
                              *w().model, w().pretrained, w().train_data, w().test_data,
                              w().array, w().trainer_cfg, cfg);
            reports[i] = node.run();
        });
    }
    const policy_outcome distributed = coord.wait_fleet();
    for (std::thread& t : threads) { t.join(); }

    ASSERT_EQ(distributed.chips.size(), serial.chips.size());
    std::size_t total_events = 0;
    for (std::size_t i = 0; i < serial.chips.size(); ++i) {
        const chip_outcome& a = serial.chips[i];
        const chip_outcome& b = distributed.chips[i];
        EXPECT_EQ(a.chip_id, b.chip_id) << "chip " << i;
        EXPECT_EQ(a.accuracy_before, b.accuracy_before) << "chip " << i;
        EXPECT_EQ(a.final_accuracy, b.final_accuracy) << "chip " << i;
        EXPECT_EQ(a.epochs_run, b.epochs_run) << "chip " << i;
        EXPECT_EQ(a.events_applied, b.events_applied) << "chip " << i;
        EXPECT_EQ(a.rollbacks, b.rollbacks) << "chip " << i;
        EXPECT_EQ(a.restarts, b.restarts) << "chip " << i;
        EXPECT_EQ(a.hit_nonfinite, b.hit_nonfinite) << "chip " << i;
        total_events += b.events_applied;
    }
    EXPECT_GE(total_events, fleet.size());  // the strike fired on every chip
}

}  // namespace
}  // namespace reduce
