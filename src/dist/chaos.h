// Deterministic network-chaos harness for the distributed service.
//
// The distributed control plane promises byte-identical artifacts through
// worker deaths, coordinator restarts, and an arbitrarily lossy network.
// This header is how that last claim gets exercised without flaky
// sleeps: a `chaos_proxy` sits between workers and the coordinator as a
// plain TCP relay and batters the stream per a seed-scheduled plan —
//
//   split      forward a frame in several random-sized writes (stresses
//              frame_decoder reassembly)
//   delay      hold a frame for a scheduled number of milliseconds
//              (latency spikes; long ones trip heartbeat deadlines)
//   duplicate  deliver a complete frame twice (the idempotent
//              duplicate-result / re-grant paths)
//   garble     flip a payload byte (the receiver must reject the frame
//              and drop the connection, never crash or mis-merge)
//   truncate   deliver a prefix of a frame, then kill the connection
//              (a peer crashing mid-send)
//   drop       kill the connection outright (partition / RST)
//
// Every decision comes from a `chaos_schedule`, an rng stream forked from
// the master seed per (connection, direction) — the same seed replays the
// same plan, and tests reuse the schedule's rng to fuzz frame_decoder
// with reproducible byte-boundary splits. Faults are applied at frame
// granularity (the proxy understands the length-prefixed framing, though
// never the JSON inside) so a "garbled" frame is a realistic corruption,
// not a desynced stream the endpoints were never promised to survive.
//
// The proxy re-resolves its target port before every upstream connect, so
// it outlives coordinator restarts: workers keep a stable endpoint while
// the coordinator behind it is SIGKILLed and revived on a fresh port —
// exactly what tests/dist_chaos_test.cpp and the CI chaos-smoke job do.
// The example binaries expose it via --chaos-seed.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dist/protocol.h"
#include "util/rng.h"

namespace reduce::dist {

/// What the chaos layer does to one frame in flight.
enum class chaos_action { pass, split, delay, duplicate, garble, truncate, drop };

/// Fault mix of a chaos run. Rates are per-frame probabilities, evaluated
/// in the order drop, truncate, garble, duplicate, delay, split (first
/// hit wins; the remainder passes clean). seed == 0 disables every fault
/// — the proxy becomes a transparent relay.
struct chaos_config {
    std::uint64_t seed = 0;
    double drop_rate = 0.02;
    double truncate_rate = 0.02;
    double garble_rate = 0.02;
    double duplicate_rate = 0.05;
    double delay_rate = 0.10;
    int delay_min_ms = 1;
    int delay_max_ms = 25;
    double split_rate = 0.25;
};

/// The deterministic decision source: one schedule per (connection,
/// direction) stream, forked from the master seed via mix_seed. Tests use
/// random() directly for reproducible fuzzing.
class chaos_schedule {
public:
    chaos_schedule(const chaos_config& cfg, std::uint64_t stream);

    /// The fate of the next frame.
    chaos_action next_action();

    /// A split boundary strictly inside a frame of `frame_size` bytes
    /// (requires frame_size >= 2).
    std::size_t split_point(std::size_t frame_size);

    /// A scheduled delay in [delay_min_ms, delay_max_ms].
    int delay_ms();

    /// Flips one payload byte (past the 4-byte length prefix, so the
    /// receiving frame_decoder sees a corrupt frame, not a desynced
    /// stream) and returns its offset. Requires frame.size() > 4.
    std::size_t garble(std::string& frame);

    /// How many bytes of a truncated frame still get delivered, in
    /// [1, frame_size - 1] (requires frame_size >= 2).
    std::size_t truncate_point(std::size_t frame_size);

    /// The underlying stream — shared with tests that need reproducible
    /// randomness (e.g. frame_decoder fuzzing in dist_protocol_test).
    rng& random() { return rng_; }

private:
    chaos_config cfg_;
    rng rng_;
};

/// Observable event counters (sum over all connections and directions).
struct chaos_proxy_stats {
    std::size_t connections = 0;       ///< inbound connections accepted
    std::size_t connect_failures = 0;  ///< upstream connects that failed
    std::size_t frames = 0;            ///< frames that entered the chaos layer
    std::size_t splits = 0;
    std::size_t delays = 0;
    std::size_t duplicates = 0;
    std::size_t garbles = 0;
    std::size_t truncates = 0;
    std::size_t drops = 0;
};

/// A TCP relay applying the chaos schedule to both directions of every
/// proxied connection. Listens on an ephemeral port (port()); each
/// inbound connection gets its own upstream connect — resolved through
/// `target_port` at connect time, so the target may move (coordinator
/// restart) without the proxied endpoint changing.
class chaos_proxy {
public:
    /// `target_port` is consulted before every upstream connect; returning
    /// <= 0 means "target not available right now" (the inbound connection
    /// is refused and the peer retries with backoff).
    chaos_proxy(chaos_config cfg, std::string target_host,
                std::function<int()> target_port);
    chaos_proxy(const chaos_proxy&) = delete;
    chaos_proxy& operator=(const chaos_proxy&) = delete;
    ~chaos_proxy();

    /// Binds the listener and launches the relay thread.
    void start();

    /// The proxied endpoint workers/coordinators should dial.
    int port() const { return port_; }

    chaos_proxy_stats stats() const;

    /// Stops accepting, severs every live proxied connection, and joins
    /// all relay threads. Idempotent; also invoked by the destructor.
    void stop();

private:
    struct pipe_pair;

    void accept_loop();
    void pump(std::shared_ptr<pipe_pair> pair, bool downstream, std::uint64_t stream);
    void count(chaos_action action);

    chaos_config cfg_;
    std::string target_host_;
    std::function<int()> target_port_;

    std::optional<tcp_listener> listener_;
    int port_ = 0;
    std::thread accept_thread_;
    std::atomic<bool> stop_{false};
    std::uint64_t next_stream_ = 0;

    mutable std::mutex mutex_;
    chaos_proxy_stats stats_;
    std::vector<std::shared_ptr<pipe_pair>> pairs_;
    std::vector<std::thread> pumps_;
};

}  // namespace reduce::dist
