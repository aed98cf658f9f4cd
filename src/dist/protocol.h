// Wire protocol of the distributed sweep/retraining service.
//
// The rendered protocol reference lives in docs/protocol.md — keep the
// two in sync when changing anything wire-visible (and bump
// protocol_version below).
//
// ## Transport
//
// Plain TCP, no external dependencies. Both ends exchange *frames*:
//
//   +----------------------+----------------------------------+
//   | length: u32, big-end | payload: `length` bytes of JSON  |
//   +----------------------+----------------------------------+
//
// The payload is one compact (single-line) JSON object with a mandatory
// string member "type". A frame with length 0 or length > max_frame_payload
// is a protocol violation; so is a payload that fails to parse or lacks the
// "type" member. Violations raise io_error — the coordinator answers them by
// closing the offending connection (and re-queueing its leases), never by
// crashing.
//
// Binary payloads travel base64-encoded (util/base64.h) inside JSON
// strings, so the whole protocol stays printable on the wire at the cost
// of 4/3 expansion. There are two: RDNN snapshot bytes, worker→coordinator
// once per chip, and each fleet chip's fault map, coordinator→worker once
// per lease as the compact codec of fault/serialization.h (`chip.fault_map`).
//
// ## Message types and flow
//
//   worker → coordinator              coordinator → worker
//   --------------------              --------------------
//   hello {version, fingerprint,      welcome {version, job, heartbeat_ms,
//          name, resumed}                      lease_timeout_ms,
//                                              want_snapshots}
//                                     reject {reason}            (then close)
//   request_work {}                   work {lease, kind=sweep_cells,
//                                           cells:[indices...]}
//                                     work {lease, kind=fleet_chip, chip,
//                                           allocation, constraint,
//                                           effective_rate}
//                                       chip = {id, seed, nominal_fault_rate,
//                                               fault_map: base64 codec bytes}
//   heartbeat {lease}                 (extends the deadline of every
//                                      lease of the connection)
//   result {lease, kind, table|       shutdown {reason}          (job done)
//           outcome [, snapshot]}
//
// ## Version negotiation and admission
//
// The first frame on a connection must be `hello`. The coordinator rejects
// (with a `reject` frame, then a close) when:
//   * hello.version != protocol_version — both ends must run the same
//     protocol revision; there is no cross-version compatibility mode, and
//     the version constant is bumped on any wire-visible change;
//   * hello.fingerprint != the coordinator's job fingerprint — for sweep
//     jobs this is resilience_fingerprint(cfg), which transitively names the
//     workload (model, dataset, pretraining), the sweep grid, the fault
//     model, and the schema version. A worker built from a different config
//     would compute different (wrong, silently mergeable) numbers; the
//     handshake is what makes that impossible.
//
// After `welcome`, the worker pulls work with `request_work`. The
// coordinator answers immediately when units are pending; otherwise it
// parks the worker and *pushes* a `work` frame later (when a lease expires
// or is returned), or `shutdown` once the job completes. A worker pulls one
// unit ahead: it sends one request_work when the session starts and the
// next as soon as a `work` frame arrives, before computing that unit, so it
// holds at most two leases (one computing, one queued).
//
// ## Leases, heartbeats, and fault handling
//
// Every `work` frame carries a fresh lease id. A lease is alive while its
// worker heartbeats (every heartbeat_ms); a heartbeat naming any active
// lease of a connection keeps all of that connection's leases alive, the
// queued one included. A lease silent for lease_timeout_ms — or whose
// connection drops — is revoked and its unit re-queued for another worker.
// Work units are idempotent by construction (per-cell / per-chip seeding),
// so a revoked unit re-executes byte-identically elsewhere; a straggler's
// late `result` for a unit that is not yet done is accepted (it is the
// same bytes), and for a unit already done it is dropped as a duplicate.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/fleet_executor.h"
#include "core/policy.h"
#include "fault/chip.h"
#include "util/json.h"

namespace reduce::dist {

/// Wire protocol revision. Bumped on ANY wire-visible change; both ends
/// must match exactly (checked in the hello/welcome handshake).
/// v2: hello gained the mandatory `resumed` flag (worker session-resume).
/// v3: `chip.fault_map` is base64 of the binary fault-map codec instead of
///     per-PE JSON objects.
inline constexpr int protocol_version = 3;

/// Upper bound on a frame payload. Far above any real message (the largest
/// are RDNN2 snapshots of this repo's models, well under a hundred MB even
/// base64-expanded), low enough that a garbage length prefix is rejected
/// before driving an unchecked multi-gigabyte allocation.
inline constexpr std::uint32_t max_frame_payload = 256u << 20;

// --- Framing ---------------------------------------------------------------

/// Serializes a message into one wire frame: u32 big-endian payload length
/// followed by the compact JSON payload.
std::string encode_frame(const json_value& message);

/// Incremental frame decoder: feed() raw bytes as they arrive, next() pops
/// complete messages. Handles frames split across arbitrarily many reads
/// and multiple frames per read. Throws io_error on protocol violations
/// (zero/oversized length, unparseable payload) — the caller closes the
/// connection.
class frame_decoder {
public:
    /// Appends raw bytes from the socket.
    void feed(const char* data, std::size_t n);

    /// Pops the next complete message, or nullopt when more bytes are
    /// needed. Throws io_error on a malformed frame.
    std::optional<json_value> next();

    /// Bytes buffered but not yet consumed by next().
    std::size_t buffered() const { return buffer_.size(); }

private:
    std::string buffer_;
};

// --- Sockets ----------------------------------------------------------------

/// Thin RAII wrapper over a connected TCP socket (POSIX). Move-only.
class tcp_socket {
public:
    tcp_socket() = default;
    explicit tcp_socket(int fd) : fd_(fd) {}
    tcp_socket(const tcp_socket&) = delete;
    tcp_socket& operator=(const tcp_socket&) = delete;
    tcp_socket(tcp_socket&& other) noexcept;
    tcp_socket& operator=(tcp_socket&& other) noexcept;
    ~tcp_socket() { close(); }

    /// Connects to host:port; throws io_error on failure.
    static tcp_socket connect_to(const std::string& host, int port);

    /// Switches the descriptor between blocking and non-blocking mode.
    void set_nonblocking(bool nonblocking);

    /// Blocking send of the whole buffer; throws io_error on failure.
    void send_all(const std::string& bytes);

    /// Non-blocking-friendly send: writes what the kernel accepts and
    /// returns the byte count (0 when the send buffer is full). Throws
    /// io_error on hard errors.
    std::size_t send_some(const char* data, std::size_t n);

    /// One receive. `closed` is set when the peer shut the connection;
    /// `would_block` when a non-blocking read found nothing.
    struct recv_result {
        std::size_t bytes = 0;
        bool closed = false;
        bool would_block = false;
    };
    recv_result recv_some(char* buf, std::size_t cap);

    void close();
    int fd() const { return fd_; }
    bool valid() const { return fd_ >= 0; }

private:
    int fd_ = -1;
};

/// Listening TCP socket; its owner holds it in place (neither copyable nor
/// movable). The descriptor is non-blocking so an event loop can drain the
/// accept queue without stalling.
class tcp_listener {
public:
    /// Binds address:port and listens; port 0 picks an ephemeral port
    /// (read it back via port()). Throws io_error on failure.
    tcp_listener(const std::string& address, int port);
    tcp_listener(const tcp_listener&) = delete;
    tcp_listener& operator=(const tcp_listener&) = delete;
    ~tcp_listener() { close(); }

    /// Accepts one pending connection (returned non-blocking), or nullopt
    /// when the queue is empty.
    std::optional<tcp_socket> accept_one();

    int port() const { return port_; }
    int fd() const { return fd_; }
    void close();

private:
    int fd_ = -1;
    int port_ = 0;
};

// --- Messages ---------------------------------------------------------------

/// The kind of job a coordinator serves (carried in `welcome` so a worker
/// knows which work kinds to expect).
enum class job_kind { sweep, fleet };

std::string job_kind_name(job_kind kind);

/// Mandatory "type" member of a message; throws io_error when absent.
const std::string& message_type(const json_value& message);

/// `resumed` marks a re-handshake after a mid-job transport loss; the
/// coordinator counts it (workers_resumed) and expects stray results.
json_value make_hello(const std::string& fingerprint, const std::string& worker_name,
                      bool resumed = false);
json_value make_welcome(job_kind kind, int heartbeat_ms, int lease_timeout_ms,
                        bool want_snapshots);
json_value make_reject(const std::string& reason);
json_value make_request_work();
json_value make_sweep_work(std::uint64_t lease, const std::vector<std::size_t>& cells);
json_value make_chip_work(std::uint64_t lease, const chip& c, const epoch_allocation& alloc,
                          double constraint, double effective_rate);
json_value make_sweep_result(std::uint64_t lease, const json_value& table);
json_value make_chip_result(std::uint64_t lease, const chip_outcome& outcome,
                            const std::string& snapshot_bytes);
json_value make_heartbeat(std::uint64_t lease);
json_value make_shutdown(const std::string& reason);

/// chip_outcome ⇄ JSON (every field round-trips exactly; doubles are
/// serialized at full precision by the json layer).
json_value chip_outcome_to_json(const chip_outcome& outcome);
chip_outcome chip_outcome_from_json(const json_value& value);

/// epoch_allocation ⇄ JSON.
json_value allocation_to_json(const epoch_allocation& alloc);
epoch_allocation allocation_from_json(const json_value& value);

}  // namespace reduce::dist
