// Worker of the distributed sweep/retraining service.
//
// A worker connects to a coordinator (dist/coordinator.h), proves at
// handshake that it was built from the same job config (protocol version +
// resilience fingerprint), and then pulls leased work units until the
// coordinator says shutdown. It pulls one unit ahead: the next request_work
// goes out as soon as a work frame arrives, before that unit computes, so
// the next unit is already queued in the socket when the current one ends
// and a worker holds at most two leases (one computing, one queued):
//
//   * sweep_cells units run each leased cell through run_sweep_cell — the
//     returned partial table is byte-compatible with the same cells of a
//     single-machine sweep, so the coordinator's incremental merge
//     reproduces the serial artifact exactly;
//   * fleet_chip units run through tune_chip — the chip, allocation,
//     constraint, and effective rate all arrive on the wire, so the worker
//     stays policy-agnostic; tuned-model snapshots travel back as RDNN
//     bytes when the coordinator asked for them.
//
// Both kinds are the same episodes the local sweep and fleet executor run,
// on one episode_worker (core/fat_trainer.h): the worker clones the model
// once, on its first unit, and trains every later lease on that clone.
//
// A background heartbeat thread names the computing lease while the (long)
// training computation runs on the main thread; the coordinator extends
// every lease of the connection on it, the queued one included. Socket
// writes are mutex-guarded so heartbeats interleave safely with requests
// and result frames.
//
// Session resume: a mid-job transport loss (coordinator restarted, network
// partition, chaos proxy severing the wire) does not end run(). The worker
// reconnects under the same capped-exponential-backoff-with-jitter budget
// the initial connect uses (per outage, reconnect_deadline_ms), re-
// handshakes with hello.resumed set, and continues pulling work. A result
// whose send failed is stashed and resent on the next session; the
// coordinator either routes it (lease known — idempotent, same bytes) or
// drops it as a stray (lease granted by a dead incarnation — the unit
// re-executes). A finished coordinator answers a late hello with shutdown
// (for drain_timeout_ms after completion), so a worker whose shutdown frame
// was lost still ends with shutdown_received. Only when a whole reconnect
// budget burns without a session does run() return with connection_lost.
//
// Failure injection: die_after_units > 0 makes the worker close its socket
// abruptly after *receiving* its Nth work unit, before computing anything
// and before asking for the next one — the in-process stand-in for SIGKILL
// mid-lease that the loopback tests use to exercise lease revocation and
// reassignment. It dies holding that one lease only: every earlier unit's
// result went out before the Nth work frame was read.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "core/fleet_executor.h"
#include "core/resilience.h"
#include "dist/protocol.h"
#include "util/rng.h"

namespace reduce::dist {

struct worker_config {
    std::string host = "127.0.0.1";
    int port = 0;
    /// Reported in the hello frame; shows up in coordinator logs.
    std::string name = "worker";
    /// Job fingerprint presented at handshake — resilience_fingerprint of
    /// the sweep config both ends were built from. Empty → computed from
    /// the worker's own sweep config.
    std::string fingerprint;
    std::size_t gemm_threads = 1;  ///< ignored; perfbench spells it; ROADMAP 1b deletes
    /// Backoff between connect attempts: delays double from
    /// backoff_initial_ms up to backoff_max_ms, each jittered into
    /// [delay/2, delay] by a seeded per-worker stream so a fleet of workers
    /// hammering a restarting coordinator desynchronizes deterministically.
    int backoff_initial_ms = 50;
    int backoff_max_ms = 2000;
    /// Jitter stream seed; 0 → derived from `name` (stable per worker).
    std::uint64_t backoff_seed = 0;
    /// Total budget for the initial connect — lets a worker start before
    /// its coordinator. Exhaustion throws io_error (misconfiguration).
    int connect_deadline_ms = 10000;
    /// Total budget for re-establishing a session after a mid-job transport
    /// loss, counted per outage (it resets on every successful handshake).
    /// 0 disables resume: a transport loss ends run() with connection_lost.
    int reconnect_deadline_ms = 10000;
    /// When set, re-resolves the coordinator port before every connect
    /// attempt (e.g. re-reading a --port-file that a restarted coordinator
    /// rewrote). Unset → `port`.
    std::function<int()> port_resolver;
    /// Failure injection: abruptly close the connection upon receiving the
    /// Nth work unit (0 → disabled).
    std::size_t die_after_units = 0;
};

/// What a worker did before its run() returned.
struct worker_report {
    std::size_t sweep_units = 0;   ///< sweep_cells units completed
    std::size_t cells = 0;         ///< total sweep cells computed
    std::size_t chips = 0;         ///< fleet chips tuned
    bool rejected = false;         ///< coordinator refused the handshake
    std::string reject_reason;
    bool shutdown_received = false;///< clean end of job
    std::string shutdown_reason;
    bool died = false;             ///< die_after_units fired
    bool connection_lost = false;  ///< a reconnect budget burned without a session
    std::size_t reconnects = 0;    ///< sessions resumed after a transport loss
    std::size_t results_resent = 0;///< computed results delivered on a later session
};

/// The shared backoff curve of initial connect and mid-job reconnect: the
/// delay before (0-based) attempt `attempt`, doubling from initial_ms,
/// capped at max_ms, jittered into [delay/2, delay] by `jitter`. Exposed
/// for tests (dist_chaos_test pins the curve).
int backoff_delay_ms(int initial_ms, int max_ms, int attempt, rng& jitter);

/// One worker process/thread. The referenced model/datasets/snapshot must
/// outlive it and are never mutated (every unit runs on the worker's own
/// clone, the same thread-safety contract as resilience_analyzer /
/// chip_tuner).
class worker {
public:
    worker(worker_config cfg, const sequential& model, const model_snapshot& pretrained,
           const dataset& train_data, const dataset& test_data, const array_config& array,
           fat_config trainer_cfg, resilience_config sweep_cfg);

    /// Connects, handshakes, and serves work units until shutdown, rejection,
    /// connection loss, or injected death. Blocking; never throws for
    /// transport-level endings (see the report flags) — only for local
    /// misconfiguration.
    worker_report run();

private:
    worker_config cfg_;
    const sequential& model_;
    const model_snapshot& pretrained_;
    const dataset& train_data_;
    const dataset& test_data_;
    array_config array_;
    fat_config trainer_cfg_;
    resilience_config sweep_cfg_;
};

}  // namespace reduce::dist
