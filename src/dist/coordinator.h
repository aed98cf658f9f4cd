// Coordinator of the distributed sweep/retraining service.
//
// A long-running process that owns the job state — the Step-1 sweep grid or
// the Step-2/3 fleet chip ledger — and hands lease-based work units to
// workers connecting over TCP (see dist/protocol.h for the wire format).
// The coordinator is the fault-tolerance authority:
//
//   * every worker is admitted only when its hello fingerprint matches the
//     job's (resilience_fingerprint transitively names workload, grid,
//     fault model, and schema version);
//   * each work unit is leased, with heartbeats extending the lease
//     deadline; a lease whose worker dies, disconnects, or stops
//     heartbeating is revoked and the unit re-queued for another worker.
//     Workers pull one unit ahead (dist/worker.h), so a connection holds
//     up to two leases, and a heartbeat naming any active lease of a
//     connection extends every lease that connection holds;
//   * work units are idempotent by construction (per-cell / per-chip
//     seeding), so re-execution elsewhere is byte-identical, and a
//     straggler's late result is either accepted (unit still open — the
//     same bytes) or dropped as a duplicate (unit already done);
//   * partial tables are fused incrementally via resilience_table::merge_into
//     as they arrive, so the final artifact is byte-identical to the
//     single-machine sweep regardless of worker count, scheduling, or
//     arrival order — and is persisted through resilience_cache;
//   * with a journal directory configured, every completed unit is made
//     durable (dist/journal.h: append + fsync) BEFORE it is acknowledged,
//     so a coordinator restarted after a crash replays the journal,
//     re-queues only the unfinished remainder, and still produces the
//     byte-identical artifact — results for leases granted by the dead
//     incarnation arrive as strays and are dropped (the unit re-executes
//     idempotently).
//
// Architecture: a single-threaded poll()-based event loop on a background
// thread owns every connection, lease, and partial result; wait_table() /
// wait_fleet() block the caller until the job completes (or rethrow the
// loop's failure). No locks are held while training — the coordinator never
// computes, it only schedules and merges.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/fleet_executor.h"
#include "core/policy.h"
#include "core/resilience.h"
#include "dist/journal.h"
#include "dist/protocol.h"
#include "fault/chip.h"

namespace reduce::dist {

/// Transport and scheduling knobs of a coordinator. None of them changes
/// result bytes — only wall-clock behavior and fault-tolerance latency.
struct coordinator_config {
    std::string bind_address = "127.0.0.1";
    /// Listening port; 0 picks an ephemeral port (read back via port()).
    int port = 0;
    /// Job fingerprint workers must present at handshake. Empty → computed
    /// as resilience_fingerprint of the sweep config (sweep jobs must leave
    /// it empty or match; fleet jobs must set it — conventionally to the
    /// fingerprint of the sweep the policy's table came from).
    std::string fingerprint;
    /// Sweep cells batched into one work unit (amortizes per-lease round
    /// trips; smaller batches rebalance better around stragglers).
    std::size_t cells_per_lease = 4;
    /// Heartbeat cadence workers are told to keep (welcome.heartbeat_ms).
    int heartbeat_ms = 500;
    /// Silence threshold after which a lease is revoked and re-queued.
    int lease_timeout_ms = 10000;
    /// How long a finished job lingers before the event loop exits (sooner
    /// on stop()): it flushes the shutdown broadcast to connected workers
    /// and answers every late hello with shutdown, so a worker whose
    /// shutdown frame was lost still learns the job is complete.
    int drain_timeout_ms = 1000;
    /// When non-empty, every completed unit is journaled (write + fsync to
    /// <journal_dir>/journal-<fingerprint>.wal) before being acknowledged,
    /// and start() replays an existing journal, re-queueing only the
    /// unfinished units. Empty → in-memory only; a coordinator crash loses
    /// the job.
    std::string journal_dir;
};

/// A Step-1 job: compute the full resilience table for `cfg`.
struct sweep_job {
    resilience_config cfg;
    /// When non-empty, the merged table is persisted through
    /// resilience_cache(cache_dir) before wait_table() returns.
    std::string cache_dir;
};

/// A Steps-2+3 job: tune every chip of a fleet per a pre-computed plan.
/// Allocations and effective rates are decided centrally (see
/// plan_fleet_job) so policies needing cross-chip context (binning) work
/// unchanged and every worker stays policy-agnostic.
struct fleet_job {
    std::vector<chip> fleet;
    std::vector<epoch_allocation> allocations;  ///< one per chip
    std::vector<double> effective_rates;        ///< one per chip
    double constraint = 0.0;
    std::string policy_name;
    /// When set, workers return tuned-model snapshots and the coordinator
    /// streams them to the model sink as a fleet-order prefix (same
    /// contract as fleet_executor).
    bool collect_snapshots = false;
};

/// Runs the decision half of fleet_executor::run — per-chip effective
/// rates, then the policy's fleet-level plan — and packages the result as a
/// distributable job. Byte-compatible with the serial executor: a fleet job
/// built here and executed remotely yields the same outcomes as
/// fleet_executor::run with the same policy.
fleet_job plan_fleet_job(sequential& model, const array_config& array,
                         const retraining_policy& policy, std::vector<chip> fleet,
                         const std::string& run_name = "");

/// Observable scheduling counters (tests assert on fault handling).
struct coordinator_stats {
    std::size_t workers_admitted = 0;
    std::size_t workers_rejected = 0;   ///< handshake failures (version/fingerprint)
    std::size_t connections_dropped = 0;///< closed peers + protocol violations
    std::size_t frames_rejected = 0;    ///< malformed frames / messages
    std::size_t leases_granted = 0;
    std::size_t leases_reassigned = 0;  ///< revoked (death/straggle) and re-queued
    std::size_t duplicate_results = 0;  ///< straggler results for done units
    std::size_t stray_results = 0;      ///< results for leases this incarnation never granted
    std::size_t workers_resumed = 0;    ///< admissions with hello.resumed set
    std::size_t journal_units_replayed = 0;  ///< units recovered on start()
    std::size_t units_total = 0;        ///< work units in the job
    std::size_t units_completed = 0;    ///< replayed + freshly accepted
};

/// The service. One coordinator serves exactly one job, then shuts its
/// workers down and completes.
class coordinator {
public:
    coordinator(coordinator_config cfg, sweep_job job);
    coordinator(coordinator_config cfg, fleet_job job);
    coordinator(const coordinator&) = delete;
    coordinator& operator=(const coordinator&) = delete;
    ~coordinator();

    /// Tuned-model hook for fleet jobs with collect_snapshots (fleet-order
    /// prefix streaming, invoked from the event-loop thread). Install
    /// before start().
    void set_model_sink(model_sink sink);

    /// Binds the listener (errors throw here, synchronously) and launches
    /// the event loop. port() is valid once start() returns.
    void start();

    /// The bound port (useful with config.port = 0).
    int port() const { return port_; }

    /// Blocks until a sweep job completes and returns the merged table —
    /// byte-identical (to_json().dump()) to the single-machine sweep.
    /// Rethrows the event loop's failure, including stop() before
    /// completion. Call at most once.
    resilience_table wait_table();

    /// Blocks until a fleet job completes and returns the aggregated
    /// outcome, chips in fleet order. Call at most once.
    policy_outcome wait_fleet();

    /// Asks the event loop to exit without waiting for completion (waiters
    /// then observe a failure) and wakes its poll, so the loop ends at
    /// once, lingering or not. Idempotent; also invoked by the destructor.
    void stop();

    coordinator_stats stats() const;

private:
    using clock = std::chrono::steady_clock;

    /// One unit of leased work: a batch of sweep-cell indices, or one chip.
    struct work_unit {
        std::vector<std::size_t> cells;  ///< sweep jobs
        std::size_t chip_index = 0;      ///< fleet jobs
        bool done = false;
        bool leased = false;  ///< an active lease currently covers it
    };

    /// Lease records live for the whole job (revoked ones stay, inactive)
    /// so a straggler's late result can still be routed to its unit.
    struct lease_info {
        std::size_t unit = 0;
        int conn_fd = -1;
        clock::time_point deadline{};
        bool active = false;
    };

    /// Nonblocking eventfd in the event loop's poll set: stop() signals it
    /// so the loop wakes at once instead of at its next timeout.
    struct wake_event {
        wake_event();
        ~wake_event();
        wake_event(const wake_event&) = delete;
        wake_event& operator=(const wake_event&) = delete;
        void signal() const;
        void drain() const;
        int fd = -1;
    };

    struct connection {
        tcp_socket sock;
        frame_decoder decoder;
        std::string outbox;
        bool admitted = false;
        bool closing = false;       ///< drop once the outbox drains (rejects)
        bool shutdown_sent = false;
        std::string peer_name;
        std::vector<std::uint64_t> active_leases;
    };

    void event_loop();
    void run_event_loop();
    void add_connection(tcp_socket sock);
    void drop_connection(int fd, const std::string& why);
    void queue_frame(connection& conn, const json_value& message);
    bool flush_outbox(connection& conn);
    void handle_message(int fd, connection& conn, const json_value& message);
    void handle_hello(int fd, connection& conn, const json_value& message);
    void handle_request_work(int fd, connection& conn);
    void handle_heartbeat(int fd, connection& conn, const json_value& message);
    void handle_result(int fd, connection& conn, const json_value& message);
    void accept_sweep_result(const json_value& message);
    void accept_fleet_result(const work_unit& unit, const json_value& message);
    void grant_to(int fd, connection& conn);
    void grant_parked();
    void revoke_lease(std::uint64_t lease_id);
    void expire_leases(clock::time_point now);
    void replay_journal();
    json_value journal_record(std::size_t unit_id, const json_value& message) const;
    void complete_unit(std::size_t unit_id);
    void finish_job();
    void fulfill_done();
    void fail(std::exception_ptr error);
    json_value work_message(std::uint64_t lease_id, const work_unit& unit) const;

    coordinator_config cfg_;
    job_kind kind_;
    sweep_job sweep_;
    fleet_job fleet_;
    model_sink sink_;
    journal journal_;

    std::optional<tcp_listener> listener_;
    int port_ = 0;
    std::thread loop_;
    std::atomic<bool> stop_{false};
    wake_event wake_;

    // Everything below is owned by the event-loop thread; stats_ and the
    // results additionally sync to callers through mutex_/done_.
    std::map<int, connection> conns_;
    std::vector<work_unit> units_;
    std::deque<std::size_t> pending_;
    std::deque<int> parked_;
    std::map<std::uint64_t, lease_info> leases_;
    std::uint64_t next_lease_ = 1;
    std::size_t done_units_ = 0;
    bool job_done_ = false;
    clock::time_point drain_deadline_{};

    std::optional<resilience_table> acc_;             ///< sweep accumulator
    std::vector<std::optional<chip_outcome>> outcomes_;
    std::vector<model_snapshot> pending_models_;
    std::vector<bool> model_ready_;
    std::size_t next_sink_ = 0;

    mutable std::mutex mutex_;
    coordinator_stats stats_;
    std::optional<resilience_table> table_result_;
    std::optional<policy_outcome> fleet_result_;
    std::promise<void> done_promise_;
    std::shared_future<void> done_;
    bool done_set_ = false;
};

}  // namespace reduce::dist
