// Crash-safety tests of the distributed service: the chaos schedule/proxy
// (dist/chaos.h), the durable coordinator journal (dist/journal.h), worker
// session-resume, and their composition — the load-bearing claims being
// that (1) a coordinator SIGKILLed mid-job and restarted from its journal,
// and (2) workers riding out a deterministically battered wire, both still
// produce artifacts byte-identical to the single-machine path.
//
// Everything stochastic here is seeded: a failing run reproduces from the
// seeds in this file.
#include <gtest/gtest.h>

#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/fleet_executor.h"
#include "core/policy.h"
#include "core/workload.h"
#include "dist/chaos.h"
#include "dist/coordinator.h"
#include "dist/journal.h"
#include "dist/worker.h"
#include "fault/chip.h"
#include "fuzz_mutations.h"
#include "nn/serialize.h"
#include "util/base64.h"
#include "util/error.h"
#include "util/log.h"
#include "util/rng.h"

namespace reduce {
namespace {

resilience_config small_config(std::size_t repeats) {
    resilience_config cfg;
    cfg.fault_rates = {0.0, 0.3};
    cfg.repeats = repeats;
    cfg.max_epochs = 0.5;
    cfg.seed = 77;
    cfg.context = "dist-test-workload";
    return cfg;
}

std::string make_temp_dir(const std::string& tag) {
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("reduce_chaos_" + tag + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
    return path.string();
}

/// Minimal protocol-speaking client used as a lease hostage: it takes one
/// work unit and sits on it silently, so the first coordinator incarnation
/// provably cannot finish the job before the test kills it.
struct raw_client {
    dist::tcp_socket sock;
    dist::frame_decoder decoder;

    explicit raw_client(int port)
        : sock(dist::tcp_socket::connect_to("127.0.0.1", port)) {}

    void send(const json_value& message) { sock.send_all(dist::encode_frame(message)); }

    json_value read() {
        for (;;) {
            if (std::optional<json_value> message = decoder.next()) { return *message; }
            char buf[4096];
            const dist::tcp_socket::recv_result r = sock.recv_some(buf, sizeof buf);
            REDUCE_CHECK(!r.closed, "coordinator closed the raw client's connection");
            if (!r.would_block) { decoder.feed(buf, r.bytes); }
        }
    }

    /// Handshakes and takes (then silently holds) one lease.
    void take_hostage_lease(const std::string& fingerprint) {
        send(dist::make_hello(fingerprint, "hostage"));
        REDUCE_CHECK(dist::message_type(read()) == "welcome", "hostage not admitted");
        send(dist::make_request_work());
        REDUCE_CHECK(dist::message_type(read()) == "work", "hostage got no lease");
    }
};

/// A relay between one worker and the coordinator that drops the first
/// `shutdown` frame on purpose: it closes both sides instead of forwarding
/// it, as a lossy wire would. Every later connection is relayed untouched.
class shutdown_dropping_relay {
public:
    explicit shutdown_dropping_relay(int target_port)
        : listener_("127.0.0.1", 0), target_port_(target_port), thread_([this] { serve(); }) {}
    shutdown_dropping_relay(const shutdown_dropping_relay&) = delete;
    shutdown_dropping_relay& operator=(const shutdown_dropping_relay&) = delete;
    ~shutdown_dropping_relay() { stop(); }

    int port() const { return listener_.port(); }
    std::size_t connections() const { return connections_.load(); }
    bool dropped() const { return dropped_.load(); }
    std::chrono::steady_clock::time_point dropped_at() const { return dropped_at_; }

    void stop() {
        stop_.store(true);
        if (thread_.joinable()) { thread_.join(); }
    }

private:
    void serve() {
        while (!stop_.load()) {
            std::optional<dist::tcp_socket> down = listener_.accept_one();
            if (!down.has_value()) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                continue;
            }
            connections_.fetch_add(1);
            down->set_nonblocking(false);
            try {
                dist::tcp_socket up = dist::tcp_socket::connect_to("127.0.0.1", target_port_);
                relay(*down, up);
            } catch (const io_error&) {
                // Either side went away: this connection is over.
            }
        }
    }

    /// Pumps one connection pair until either side closes, the first
    /// shutdown frame is dropped, or stop().
    void relay(dist::tcp_socket& down, dist::tcp_socket& up) {
        dist::frame_decoder from_up;
        char buf[16384];
        while (!stop_.load()) {
            ::pollfd fds[2] = {{down.fd(), POLLIN, 0}, {up.fd(), POLLIN, 0}};
            if (::poll(fds, 2, 10) <= 0) { continue; }
            if (fds[0].revents != 0) {
                const dist::tcp_socket::recv_result r = down.recv_some(buf, sizeof buf);
                if (r.closed) { return; }
                up.send_all(std::string(buf, r.bytes));
            }
            if (fds[1].revents != 0) {
                const dist::tcp_socket::recv_result r = up.recv_some(buf, sizeof buf);
                if (r.closed) { return; }
                from_up.feed(buf, r.bytes);
                while (std::optional<json_value> message = from_up.next()) {
                    if (!dropped_.load() && dist::message_type(*message) == "shutdown") {
                        dropped_at_ = std::chrono::steady_clock::now();
                        dropped_.store(true);
                        return;  // both sockets close as the caller unwinds
                    }
                    down.send_all(dist::encode_frame(*message));
                }
            }
        }
    }

    dist::tcp_listener listener_;
    int target_port_;
    std::atomic<bool> stop_{false};
    std::atomic<std::size_t> connections_{0};
    std::atomic<bool> dropped_{false};
    std::chrono::steady_clock::time_point dropped_at_{};  ///< written before dropped_
    std::thread thread_;
};

template <typename Pred>
bool eventually(Pred pred, int timeout_ms = 60000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (!pred()) {
        if (std::chrono::steady_clock::now() >= deadline) { return false; }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
}

// --- chaos_schedule / backoff (pure determinism, no sockets) ---------------

TEST(ChaosSchedule, DeterministicPerSeedAndStream) {
    dist::chaos_config cfg;
    cfg.seed = 123;
    dist::chaos_schedule s1(cfg, 5);
    dist::chaos_schedule s2(cfg, 5);
    dist::chaos_schedule s3(cfg, 6);
    std::vector<int> a, b, c;
    std::size_t faults = 0;
    for (int i = 0; i < 500; ++i) {
        const dist::chaos_action action = s1.next_action();
        if (action != dist::chaos_action::pass) { ++faults; }
        a.push_back(static_cast<int>(action));
        b.push_back(static_cast<int>(s2.next_action()));
        c.push_back(static_cast<int>(s3.next_action()));
    }
    EXPECT_EQ(a, b) << "same seed + stream must replay the same plan";
    EXPECT_NE(a, c) << "different streams must not be correlated";
    // Default rates sum to 0.46 — a 500-frame plan with no faults (or all
    // faults) would mean the thresholds are broken.
    EXPECT_GT(faults, 100u);
    EXPECT_LT(faults, 400u);
}

TEST(ChaosSchedule, FrameEditsStayInBounds) {
    dist::chaos_config cfg;
    cfg.seed = 9;
    dist::chaos_schedule schedule(cfg, 0);
    const std::string original = dist::encode_frame(dist::make_heartbeat(7));
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t split = schedule.split_point(original.size());
        EXPECT_GE(split, 1u);
        EXPECT_LT(split, original.size());
        const std::size_t keep = schedule.truncate_point(original.size());
        EXPECT_GE(keep, 1u);
        EXPECT_LT(keep, original.size());
        const int delay = schedule.delay_ms();
        EXPECT_GE(delay, cfg.delay_min_ms);
        EXPECT_LE(delay, cfg.delay_max_ms);
        std::string frame = original;
        const std::size_t offset = schedule.garble(frame);
        EXPECT_GE(offset, 4u) << "garble must never touch the length prefix";
        EXPECT_LT(offset, frame.size());
        EXPECT_NE(frame, original) << "garble must actually change a byte";
        EXPECT_EQ(frame.substr(0, 4), original.substr(0, 4));
    }
}

TEST(Backoff, DelaysDoubleCapAndJitterDeterministically) {
    rng a(42);
    rng b(42);
    for (int attempt = 0; attempt < 12; ++attempt) {
        const int d1 = dist::backoff_delay_ms(50, 2000, attempt, a);
        const int d2 = dist::backoff_delay_ms(50, 2000, attempt, b);
        EXPECT_EQ(d1, d2) << "same jitter seed must schedule the same delays";
        const long long nominal = std::min<long long>(2000, 50ll << std::min(attempt, 20));
        EXPECT_GE(d1, static_cast<int>(std::max<long long>(1, nominal / 2)))
            << "attempt " << attempt;
        EXPECT_LE(d1, static_cast<int>(nominal)) << "attempt " << attempt;
    }
    // Different seeds must desynchronize (the whole point of jitter).
    rng c(1);
    rng d(2);
    bool diverged = false;
    for (int attempt = 0; attempt < 12 && !diverged; ++attempt) {
        diverged = dist::backoff_delay_ms(50, 2000, attempt, c) !=
                   dist::backoff_delay_ms(50, 2000, attempt, d);
    }
    EXPECT_TRUE(diverged);
}

// --- journal (pure file round-trips) ---------------------------------------

json_value unit_record(std::size_t unit, const std::string& payload) {
    json_object record;
    record.set("type", json_value("unit"));
    record.set("unit", json_value(unit));
    record.set("table", json_value(payload));
    return json_value(std::move(record));
}

TEST(Journal, RoundTripsRecordsAndTruncatesTornTails) {
    const std::string dir = make_temp_dir("journal_rt");
    const std::string path = dist::journal_path(dir, "fp123");
    {
        dist::journal j;
        EXPECT_TRUE(j.open(dir, dist::job_kind::sweep, "fp123", 4).empty());
        j.append(unit_record(0, "alpha"));
        j.append(unit_record(2, "gamma"));
    }  // closed without fanfare — a crash keeps the fsync'd records
    {
        dist::journal j;
        const std::vector<json_value> records =
            j.open(dir, dist::job_kind::sweep, "fp123", 4);
        ASSERT_EQ(records.size(), 2u);
        EXPECT_EQ(records[0].as_object().at("unit").as_int(), 0);
        EXPECT_EQ(records[1].as_object().at("unit").as_int(), 2);
        EXPECT_EQ(records[1].as_object().at("table").as_string(), "gamma");
    }
    // A crash mid-append leaves a torn tail: first a short header...
    {
        std::ofstream file(path, std::ios::binary | std::ios::app);
        file.write("\x00\x00\x01", 3);
    }
    {
        dist::journal j;
        EXPECT_EQ(j.open(dir, dist::job_kind::sweep, "fp123", 4).size(), 2u)
            << "short-header tail must be truncated away";
        // ...and appending after recovery lands on a clean boundary.
        j.append(unit_record(3, "delta"));
    }
    // ...then a full record whose checksum lies (bit rot / torn payload).
    {
        std::ofstream file(path, std::ios::binary | std::ios::app);
        const std::string bogus = std::string("\x00\x00\x00\x04", 4) +
                                  std::string("\x00\x00\x00\x00", 4) + "null";
        file.write(bogus.data(), static_cast<std::streamsize>(bogus.size()));
    }
    {
        dist::journal j;
        const std::vector<json_value> records =
            j.open(dir, dist::job_kind::sweep, "fp123", 4);
        ASSERT_EQ(records.size(), 3u) << "checksum-mismatched tail must be truncated";
        EXPECT_EQ(records[2].as_object().at("table").as_string(), "delta");
    }
    std::filesystem::remove_all(dir);
}

TEST(Journal, RefusesAJournalFromADifferentJob) {
    const std::string dir = make_temp_dir("journal_foreign");
    {
        dist::journal j;
        j.open(dir, dist::job_kind::sweep, "fpA", 4);
        j.append(unit_record(1, "x"));
    }
    {
        dist::journal j;  // unit count changed → different job shape
        EXPECT_THROW((void)j.open(dir, dist::job_kind::sweep, "fpA", 5), io_error);
    }
    {
        dist::journal j;  // kind changed
        EXPECT_THROW((void)j.open(dir, dist::job_kind::fleet, "fpA", 4), io_error);
    }
    {
        dist::journal j;  // the exact same job still replays
        EXPECT_EQ(j.open(dir, dist::job_kind::sweep, "fpA", 4).size(), 1u);
    }
    std::filesystem::remove_all(dir);
}

// --- chaos_proxy -----------------------------------------------------------

TEST(ChaosProxy, SeedZeroIsATransparentRelay) {
    dist::tcp_listener server("127.0.0.1", 0);
    std::atomic<int> target{server.port()};
    dist::chaos_config cfg;  // seed 0 → pass-through
    dist::chaos_proxy proxy(cfg, "127.0.0.1", [&] { return target.load(); });
    proxy.start();
    ASSERT_GT(proxy.port(), 0);

    dist::tcp_socket client = dist::tcp_socket::connect_to("127.0.0.1", proxy.port());
    std::optional<dist::tcp_socket> accepted;
    ASSERT_TRUE(eventually(
        [&] {
            if (!accepted.has_value()) { accepted = server.accept_one(); }
            return accepted.has_value();
        },
        10000));
    accepted->set_nonblocking(false);

    client.send_all(dist::encode_frame(dist::make_hello("fp", "through-proxy")));
    dist::frame_decoder decoder;
    char buf[4096];
    std::optional<json_value> message;
    while (!message.has_value()) {
        const dist::tcp_socket::recv_result r = accepted->recv_some(buf, sizeof buf);
        ASSERT_FALSE(r.closed);
        decoder.feed(buf, r.bytes);
        message = decoder.next();
    }
    EXPECT_EQ(dist::message_type(*message), "hello");
    EXPECT_EQ(message->as_object().at("name").as_string(), "through-proxy");
    EXPECT_EQ(proxy.stats().frames, 1u);
    EXPECT_EQ(proxy.stats().drops, 0u);
    proxy.stop();
}

// --- end-to-end crash/chaos fixtures ---------------------------------------

class DistChaosFixture : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        shared_ = new workload(make_standard_workload(make_test_workload_config()));
    }
    static void TearDownTestSuite() {
        delete shared_;
        shared_ = nullptr;
    }
    workload& w() { return *shared_; }

    std::string serial_sweep_bytes(const resilience_config& cfg) {
        resilience_analyzer analyzer(*w().model, w().pretrained, w().train_data,
                                     w().test_data, w().array, w().trainer_cfg);
        return analyzer.analyze(cfg).to_json().dump();
    }

    dist::worker_config worker_config_for(int port, const std::string& name) {
        dist::worker_config wc;
        wc.port = port;
        wc.name = name;
        wc.backoff_seed = 0x5eed + name.size();
        wc.backoff_initial_ms = 10;
        wc.backoff_max_ms = 200;
        wc.reconnect_deadline_ms = 30000;  // TSan-sized restart gaps
        return wc;
    }

    /// The journal records a coordinator writes for unit 0 of a sweep job
    /// (a real one-cell partial table) and of a fleet job (an outcome plus
    /// the tuned-model snapshot bytes).
    json_value sweep_unit_record(const resilience_config& cfg) {
        resilience_analyzer analyzer(*w().model, w().pretrained, w().train_data,
                                     w().test_data, w().array, w().trainer_cfg);
        json_object record;
        record.set("type", json_value("unit"));
        record.set("unit", json_value(0));
        record.set("table",
                   analyzer.analyze_cells(cfg, {enumerate_sweep_cells(cfg).front()}).to_json());
        return json_value(std::move(record));
    }

    std::vector<chip> two_chip_fleet() {
        fleet_config fc;
        fc.num_chips = 2;
        fc.seed = 17;
        return make_fleet(w().array, fc);
    }

    json_value fleet_unit_record(const chip& c) {
        chip_outcome outcome;
        outcome.chip_id = c.id;
        outcome.nominal_fault_rate = c.nominal_fault_rate;
        outcome.epochs_allocated = 0.5;
        outcome.epochs_run = 0.5;
        outcome.final_accuracy = 0.9;
        outcome.meets_constraint = true;
        json_object record;
        record.set("type", json_value("unit"));
        record.set("unit", json_value(0));
        record.set("outcome", dist::chip_outcome_to_json(outcome));
        record.set("snapshot", json_value(base64_encode(snapshot_to_bytes(w().pretrained))));
        return json_value(std::move(record));
    }

    dist::worker_report run_worker(const dist::worker_config& wc,
                                   const resilience_config& sweep_cfg) {
        dist::worker node(wc, *w().model, w().pretrained, w().train_data, w().test_data,
                          w().array, w().trainer_cfg, sweep_cfg);
        return node.run();
    }

    static workload* shared_;
};

workload* DistChaosFixture::shared_ = nullptr;

TEST_F(DistChaosFixture, SweepSurvivesABatteredWireByteIdentically) {
    const resilience_config cfg = small_config(2);
    const std::string reference = serial_sweep_bytes(cfg);

    dist::coordinator_config cc;
    cc.cells_per_lease = 1;
    dist::coordinator coord(cc, dist::sweep_job{cfg, ""});
    coord.start();

    // Both workers dial through one chaos proxy that drops, delays, splits,
    // duplicates, garbles, and truncates frames per a fixed seed.
    std::atomic<int> target{coord.port()};
    dist::chaos_config chaos;
    chaos.seed = 20230808;
    dist::chaos_proxy proxy(chaos, "127.0.0.1", [&] { return target.load(); });
    proxy.start();

    // The coordinator never restarts here: an outage is a connection the
    // proxy severed, and the next dial reaches a listening coordinator. A
    // worker whose shutdown frame the proxy dropped redials the closed
    // listener until its budget runs out, so the fixture's 30 s restart
    // budget would stall the test; 2 s still covers ~10 backoff steps.
    const auto battered_worker = [&](const std::string& name) {
        dist::worker_config wc = worker_config_for(proxy.port(), name);
        wc.reconnect_deadline_ms = 2000;
        return wc;
    };
    std::vector<dist::worker_report> reports(2);
    std::thread t0([&] { reports[0] = run_worker(battered_worker("c0"), cfg); });
    std::thread t1([&] { reports[1] = run_worker(battered_worker("c1"), cfg); });
    const resilience_table table = coord.wait_table();
    t0.join();
    t1.join();
    proxy.stop();

    EXPECT_EQ(table.to_json().dump(), reference)
        << "chaos (seed " << chaos.seed << ") changed the artifact bytes";
    EXPECT_GT(proxy.stats().frames, 0u);
    std::size_t total_cells = 0;
    for (const dist::worker_report& report : reports) {
        EXPECT_FALSE(report.rejected);
        total_cells += report.cells;
    }
    EXPECT_GE(total_cells, 4u);  // revocations may recompute cells, never lose them
}

TEST_F(DistChaosFixture, LostShutdownFrameIsAnsweredOnTheFirstRedial) {
    // The relay drops the worker's shutdown frame, so the worker sees a
    // transport loss and redials. The finished coordinator still answers
    // its hello with shutdown, within one backoff step: the worker ends
    // with shutdown_received, not connection_lost after its 30 s budget.
    const resilience_config cfg = small_config(1);
    const std::string reference = serial_sweep_bytes(cfg);
    dist::coordinator_config cc;
    cc.cells_per_lease = 1;
    dist::coordinator coord(cc, dist::sweep_job{cfg, ""});
    coord.start();
    shutdown_dropping_relay relay(coord.port());

    dist::worker_report report;
    std::chrono::steady_clock::time_point finished;
    std::thread worker_thread([&] {
        report = run_worker(worker_config_for(relay.port(), "late"), cfg);
        finished = std::chrono::steady_clock::now();
    });
    const resilience_table table = coord.wait_table();
    worker_thread.join();
    relay.stop();

    EXPECT_EQ(table.to_json().dump(), reference);
    ASSERT_TRUE(relay.dropped()) << "the relay never saw a shutdown frame";
    EXPECT_TRUE(report.shutdown_received);
    EXPECT_EQ(report.shutdown_reason, "job complete");
    EXPECT_FALSE(report.connection_lost);
    EXPECT_EQ(report.cells, 2u);
    // One backoff step: the first redial got the answer, and it came while
    // the finished coordinator was still lingering.
    EXPECT_EQ(relay.connections(), 2u);
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(finished -
                                                                    relay.dropped_at())
                  .count(),
              cc.drain_timeout_ms);
    const dist::coordinator_stats stats = coord.stats();
    EXPECT_EQ(stats.workers_admitted, 1u) << "a late hello must not be admitted to work";
    EXPECT_EQ(stats.units_completed, 2u);
}

TEST_F(DistChaosFixture, CoordinatorKilledMidSweepRestartsFromJournalByteIdentically) {
    const resilience_config cfg = small_config(4);  // 8 cells / 8 units
    const std::string reference = serial_sweep_bytes(cfg);
    const std::string jdir = make_temp_dir("sweep_restart");

    dist::coordinator_config cc;
    cc.cells_per_lease = 1;
    cc.journal_dir = jdir;
    cc.lease_timeout_ms = 60000;  // the hostage must outlive incarnation #1

    auto coord1 = std::make_unique<dist::coordinator>(cc, dist::sweep_job{cfg, ""});
    coord1->start();

    // The worker dials a chaos proxy — the stable endpoint that outlives the
    // coordinator — and the proxy re-resolves its target per connect.
    std::atomic<int> target{coord1->port()};
    dist::chaos_config chaos;
    chaos.seed = 808;
    dist::chaos_proxy proxy(chaos, "127.0.0.1", [&] { return target.load(); });
    proxy.start();

    // The hostage (direct, no chaos) holds one lease silently so incarnation
    // #1 cannot finish the job before the kill below.
    raw_client hostage(coord1->port());
    hostage.take_hostage_lease(resilience_fingerprint(cfg));

    dist::worker_report report;
    std::thread worker_thread(
        [&] { report = run_worker(worker_config_for(proxy.port(), "survivor"), cfg); });

    // Wait for real progress to be journaled, then kill incarnation #1 with
    // no goodbye to anyone — the in-process stand-in for SIGKILL.
    ASSERT_TRUE(eventually([&] { return coord1->stats().units_completed >= 2; }))
        << "no units completed before the kill";
    target.store(-1);
    coord1.reset();

    dist::coordinator coord2(cc, dist::sweep_job{cfg, ""});
    coord2.start();  // replays the journal before serving
    EXPECT_GE(coord2.stats().journal_units_replayed, 2u);
    EXPECT_LT(coord2.stats().journal_units_replayed, 8u);
    target.store(coord2.port());

    const resilience_table table = coord2.wait_table();
    worker_thread.join();
    proxy.stop();

    EXPECT_EQ(table.to_json().dump(), reference)
        << "journal restart + chaos changed the artifact bytes";
    EXPECT_GE(report.reconnects, 1u) << "the worker never resumed its session";
    const dist::coordinator_stats stats = coord2.stats();
    EXPECT_GE(stats.workers_resumed, 1u);
    EXPECT_EQ(stats.units_completed, 8u);
    std::filesystem::remove_all(jdir);
}

TEST_F(DistChaosFixture, FleetJobSurvivesCoordinatorRestartWithSnapshotsIntact) {
    const resilience_config cfg = small_config(2);
    fleet_config fc;
    fc.num_chips = 4;
    fc.rate_lo = 0.05;
    fc.rate_hi = 0.3;
    fc.seed = 91;
    const std::vector<chip> fleet = make_fleet(w().array, fc);
    const fixed_policy policy(0.5, 0.85);

    // Serial reference: outcomes plus tuned snapshots in fleet order.
    fleet_executor executor(*w().model, w().pretrained, w().train_data, w().test_data,
                            w().array, w().trainer_cfg);
    std::vector<std::string> serial_snaps;
    executor.set_model_sink([&](const chip&, const model_snapshot& snap) {
        serial_snaps.push_back(snapshot_to_bytes(snap));
    });
    const policy_outcome serial = executor.run(policy, fleet);

    const std::string jdir = make_temp_dir("fleet_restart");
    dist::coordinator_config cc;
    cc.fingerprint = resilience_fingerprint(cfg);
    cc.journal_dir = jdir;
    cc.lease_timeout_ms = 60000;

    const auto make_job = [&] {
        dist::fleet_job job = dist::plan_fleet_job(*w().model, w().array, policy, fleet);
        job.collect_snapshots = true;
        return job;
    };

    auto coord1 = std::make_unique<dist::coordinator>(cc, make_job());
    coord1->set_model_sink([](const chip&, const model_snapshot&) {});
    coord1->start();

    std::atomic<int> target{coord1->port()};
    dist::chaos_config chaos;
    chaos.seed = 4242;
    dist::chaos_proxy proxy(chaos, "127.0.0.1", [&] { return target.load(); });
    proxy.start();

    raw_client hostage(coord1->port());
    hostage.take_hostage_lease(cc.fingerprint);

    dist::worker_report report;
    std::thread worker_thread(
        [&] { report = run_worker(worker_config_for(proxy.port(), "tuner"), cfg); });

    ASSERT_TRUE(eventually([&] { return coord1->stats().units_completed >= 1; }))
        << "no chips completed before the kill";
    target.store(-1);
    coord1.reset();

    // Incarnation #2 replays the journaled chips — including their snapshot
    // bytes — through ITS model sink, then serves the remainder.
    dist::coordinator coord2(cc, make_job());
    std::vector<std::string> dist_snaps;
    std::vector<std::size_t> sink_chip_ids;
    coord2.set_model_sink([&](const chip& c, const model_snapshot& snap) {
        sink_chip_ids.push_back(c.id);
        dist_snaps.push_back(snapshot_to_bytes(snap));
    });
    coord2.start();
    EXPECT_GE(coord2.stats().journal_units_replayed, 1u);
    target.store(coord2.port());

    const policy_outcome distributed = coord2.wait_fleet();
    worker_thread.join();
    proxy.stop();

    ASSERT_EQ(distributed.chips.size(), serial.chips.size());
    for (std::size_t i = 0; i < serial.chips.size(); ++i) {
        EXPECT_EQ(distributed.chips[i].chip_id, serial.chips[i].chip_id) << "chip " << i;
        EXPECT_EQ(distributed.chips[i].final_accuracy, serial.chips[i].final_accuracy)
            << "chip " << i;
        EXPECT_EQ(distributed.chips[i].epochs_run, serial.chips[i].epochs_run)
            << "chip " << i;
    }
    ASSERT_EQ(dist_snaps.size(), serial_snaps.size())
        << "the restarted coordinator must stream ALL snapshots (replayed included)";
    for (std::size_t i = 0; i < serial_snaps.size(); ++i) {
        EXPECT_EQ(sink_chip_ids[i], fleet[i].id) << "sink order broke at " << i;
        EXPECT_EQ(dist_snaps[i], serial_snaps[i]) << "snapshot " << i << " diverged";
    }
    EXPECT_GE(report.reconnects, 1u);
    std::filesystem::remove_all(jdir);
}

TEST_F(DistChaosFixture, FullyJournaledJobFinishesWithoutAnyWorkers) {
    const resilience_config cfg = small_config(2);
    const std::string reference = serial_sweep_bytes(cfg);
    const std::string jdir = make_temp_dir("complete_replay");

    dist::coordinator_config cc;
    cc.cells_per_lease = 1;
    cc.journal_dir = jdir;
    {
        dist::coordinator coord(cc, dist::sweep_job{cfg, ""});
        coord.start();
        dist::worker_config wc = worker_config_for(coord.port(), "filler");
        std::thread worker_thread([&] { (void)run_worker(wc, cfg); });
        EXPECT_EQ(coord.wait_table().to_json().dump(), reference);
        worker_thread.join();
    }
    // A second incarnation pointed at the same journal needs no workers at
    // all: every unit replays, and the artifact is still byte-identical.
    dist::coordinator coord(cc, dist::sweep_job{cfg, ""});
    coord.start();
    const resilience_table table = coord.wait_table();
    const dist::coordinator_stats stats = coord.stats();
    EXPECT_EQ(table.to_json().dump(), reference);
    EXPECT_EQ(stats.journal_units_replayed, stats.units_total);
    EXPECT_EQ(stats.workers_admitted, 0u);
    std::filesystem::remove_all(jdir);
}

TEST_F(DistChaosFixture, StopEndsALingeringCoordinatorAtOnce) {
    // A coordinator restarted on a finished journal completes during
    // start() and then lingers for drain_timeout_ms, idle in its poll.
    // stop() plus destruction must end it at once, not at the poll's next
    // 100 ms timeout: ten times in a row, each within 50 ms.
    const resilience_config cfg = small_config(1);
    const std::string jdir = make_temp_dir("stop_lingering");
    dist::coordinator_config cc;
    cc.journal_dir = jdir;
    {
        dist::coordinator coord(cc, dist::sweep_job{cfg, ""});
        coord.start();
        dist::worker_config wc = worker_config_for(coord.port(), "filler");
        std::thread worker_thread([&] { (void)run_worker(wc, cfg); });
        (void)coord.wait_table();
        worker_thread.join();
    }
    cc.drain_timeout_ms = 60000;
    for (int round = 0; round < 10; ++round) {
        auto coord = std::make_unique<dist::coordinator>(cc, dist::sweep_job{cfg, ""});
        coord->start();
        (void)coord->wait_table();
        // Let the event loop settle into its poll.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        const auto t0 = std::chrono::steady_clock::now();
        coord->stop();
        coord.reset();
        const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
        EXPECT_LT(ms, 50) << "round " << round;
    }
    std::filesystem::remove_all(jdir);
}

// --- journal fuzzing --------------------------------------------------------

std::string read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::uint32_t read_u32(const std::string& bytes, std::size_t at) {
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i) {
        v = (v << 8) | static_cast<unsigned char>(bytes[at + i]);
    }
    return v;
}

void write_u32(std::string& bytes, std::size_t at, std::uint32_t v) {
    for (std::size_t i = 0; i < 4; ++i) {
        bytes[at + i] = static_cast<char>((v >> (24 - 8 * i)) & 0xff);
    }
}

/// One record as the journal frames it: length, checksum, payload.
std::string frame_record(const std::string& payload) {
    std::string bytes(8, '\0');
    write_u32(bytes, 0, static_cast<std::uint32_t>(payload.size()));
    write_u32(bytes, 4, dist::journal_checksum(payload));
    return bytes + payload;
}

/// The payloads of a journal file, or nullopt unless the file is a whole
/// number of intact records (plausible length, matching checksum).
std::optional<std::vector<std::string>> record_payloads(const std::string& bytes) {
    std::vector<std::string> payloads;
    std::size_t at = 0;
    while (at < bytes.size()) {
        if (bytes.size() - at < 8) { return std::nullopt; }
        const std::uint32_t length = read_u32(bytes, at);
        if (length == 0 || bytes.size() - at - 8 < length) { return std::nullopt; }
        std::string payload = bytes.substr(at + 8, length);
        if (dist::journal_checksum(payload) != read_u32(bytes, at + 4)) { return std::nullopt; }
        payloads.push_back(std::move(payload));
        at += 8 + length;
    }
    return payloads;
}

/// Silences the torn-tail and rejected-record warnings a fuzz loop provokes
/// by the thousand.
struct quiet_log {
    quiet_log() { set_log_sink([](log_level, const std::string&) {}); }
    ~quiet_log() { set_log_sink(nullptr); }
};

TEST_F(DistChaosFixture, JournalFuzzRawBytesReplayAPrefixOrThrowIoError) {
    // Contract of journal::open on arbitrary file bytes: io_error, or the
    // original unit records up to some point (never an altered or invented
    // one), with the file truncated to a record boundary either way.
    const resilience_config cfg = small_config(1);
    const std::vector<json_value> units = {sweep_unit_record(cfg),
                                           fleet_unit_record(two_chip_fleet().front())};
    const std::string dir = make_temp_dir("journal_fuzz_raw");
    const std::string path = dist::journal_path(dir, "fpfuzz");
    {
        dist::journal j;
        ASSERT_TRUE(j.open(dir, dist::job_kind::sweep, "fpfuzz", 2).empty());
        for (const json_value& unit : units) { j.append(unit); }
    }
    const std::string original = read_bytes(path);
    const std::optional<std::vector<std::string>> framed = record_payloads(original);
    ASSERT_TRUE(framed.has_value());
    ASSERT_EQ(framed->size(), 3u);  // header + two units
    std::vector<std::size_t> starts = {0};
    for (const std::string& payload : *framed) {
        starts.push_back(starts.back() + 8 + payload.size());
    }
    starts.pop_back();

    const quiet_log quiet;
    const std::vector<std::string> seeds = {original};
    rng random(20231);
    const auto oversize = [&](std::string& bytes) {
        const std::uint32_t lengths[] = {
            0u, static_cast<std::uint32_t>(dist::max_frame_payload) + 1u, 0xffffffffu};
        write_u32(bytes, starts[random.uniform_index(starts.size())],
                  lengths[random.uniform_index(3)]);
    };
    std::size_t replayed_any = 0;
    for (int trial = 0; trial < 1200; ++trial) {
        std::string bytes = original;
        fuzz::mutate(random, bytes, seeds, oversize);
        write_bytes(path, bytes);
        try {
            dist::journal j;
            const std::vector<json_value> records =
                j.open(dir, dist::job_kind::sweep, "fpfuzz", 2);
            ASSERT_LE(records.size(), units.size()) << "trial " << trial;
            for (std::size_t i = 0; i < records.size(); ++i) {
                ASSERT_EQ(records[i].dump(), units[i].dump()) << "trial " << trial;
            }
            replayed_any += records.empty() ? 0 : 1;
        } catch (const io_error&) {
        }
        ASSERT_TRUE(record_payloads(read_bytes(path)).has_value())
            << "trial " << trial << " left a torn tail behind";
    }
    EXPECT_GT(replayed_any, 0u) << "no mutation kept an intact prefix; the loop tests nothing";
    std::filesystem::remove_all(dir);
}

TEST_F(DistChaosFixture, JournalFuzzValidFramesWithMutatedPayloadsReplayOnlyInRangeUnits) {
    // A record can be intact on disk yet lie inside: its payload mutated,
    // then re-framed with a matching length and checksum. Replaying such a
    // journal through coordinator::start() must throw io_error or replay
    // only units of the job — and, for a fleet, stream only its chips.
    const resilience_config cfg = small_config(1);
    const std::vector<chip> fleet = two_chip_fleet();
    const fixed_policy policy(0.5, 0.85);
    const std::string fingerprint = resilience_fingerprint(cfg);
    const std::string dir = make_temp_dir("journal_fuzz_replay");

    // One valid journal per job kind, header first.
    std::vector<std::string> sweep_payloads;
    std::vector<std::string> fleet_payloads;
    for (const dist::job_kind kind : {dist::job_kind::sweep, dist::job_kind::fleet}) {
        dist::journal j;
        ASSERT_TRUE(j.open(dir, kind, fingerprint, 2).empty());
        j.append(kind == dist::job_kind::sweep ? sweep_unit_record(cfg)
                                               : fleet_unit_record(fleet.front()));
        j.close();
        const std::string path = dist::journal_path(dir, fingerprint);
        (kind == dist::job_kind::sweep ? sweep_payloads : fleet_payloads) =
            record_payloads(read_bytes(path)).value();
        std::filesystem::remove(path);
    }
    ASSERT_EQ(sweep_payloads.size(), 2u);
    ASSERT_EQ(fleet_payloads.size(), 2u);
    std::vector<std::string> seeds = sweep_payloads;
    seeds.insert(seeds.end(), fleet_payloads.begin(), fleet_payloads.end());

    dist::coordinator_config cc;
    cc.fingerprint = fingerprint;
    cc.journal_dir = dir;
    cc.cells_per_lease = 1;
    const quiet_log quiet;
    rng random(20232);
    // The decoder-specific extreme: a unit index or unit count far outside
    // the job, or not an integer at all.
    const auto oversize = [&](std::string& payload) {
        json_value record = json_parse(payload);
        json_object obj = record.as_object();
        const json_value extremes[] = {json_value(-1), json_value(2), json_value(1e300),
                                       json_value(4611686018427387904.0), json_value(0.5)};
        obj.set(obj.contains("unit") ? "unit" : "units", extremes[random.uniform_index(5)]);
        payload = json_value(std::move(obj)).dump();
    };
    std::size_t replayed = 0;
    for (int trial = 0; trial < 240; ++trial) {
        const bool sweep = trial % 2 == 0;
        std::vector<std::string> payloads = sweep ? sweep_payloads : fleet_payloads;
        fuzz::mutate(random, payloads[random.uniform_index(payloads.size())], seeds, oversize);
        std::string bytes;
        for (const std::string& payload : payloads) {
            if (!payload.empty()) { bytes += frame_record(payload); }
        }
        write_bytes(dist::journal_path(dir, fingerprint), bytes);

        std::vector<std::size_t> sunk;
        std::unique_ptr<dist::coordinator> coord;
        if (sweep) {
            coord = std::make_unique<dist::coordinator>(cc, dist::sweep_job{cfg, ""});
        } else {
            dist::fleet_job job = dist::plan_fleet_job(*w().model, w().array, policy, fleet);
            job.collect_snapshots = true;
            coord = std::make_unique<dist::coordinator>(cc, std::move(job));
            coord->set_model_sink(
                [&](const chip& c, const model_snapshot&) { sunk.push_back(c.id); });
        }
        try {
            coord->start();
        } catch (const io_error&) {
            continue;
        }
        coord->stop();
        const dist::coordinator_stats stats = coord->stats();
        ASSERT_LE(stats.journal_units_replayed, 1u) << "trial " << trial;
        ASSERT_EQ(stats.units_completed, stats.journal_units_replayed) << "trial " << trial;
        for (const std::size_t id : sunk) { ASSERT_EQ(id, fleet.front().id) << "trial " << trial; }
        replayed += stats.journal_units_replayed;
    }
    EXPECT_GT(replayed, 0u) << "no trial replayed a unit; the loop tests nothing";
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace reduce
