#include "dist/worker.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "fault/serialization.h"
#include "util/error.h"
#include "util/log.h"

namespace reduce::dist {

namespace {

using clock = std::chrono::steady_clock;

/// Jitter seed of a worker: explicit, or FNV-1a of its name (not std::hash,
/// which differs across standard libraries and would break reproducible
/// backoff schedules).
std::uint64_t derive_backoff_seed(const worker_config& cfg) {
    if (cfg.backoff_seed != 0) { return cfg.backoff_seed; }
    std::uint64_t hash = 14695981039346656037ULL;
    for (const char c : cfg.name) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ULL;
    }
    return hash | 1;  // never the disabled sentinel
}

/// Dials the coordinator under a total-deadline budget, re-resolving the
/// port (port_resolver) and backing off between attempts. Shared by the
/// initial connect and the mid-job reconnect path; `phase` labels logs and
/// the final io_error.
tcp_socket connect_with_backoff(const worker_config& cfg, int deadline_ms, rng& jitter,
                                const char* phase) {
    const clock::time_point deadline =
        clock::now() + std::chrono::milliseconds(std::max(1, deadline_ms));
    for (int attempt = 0;; ++attempt) {
        const int port = cfg.port_resolver ? cfg.port_resolver() : cfg.port;
        try {
            if (port <= 0) { throw io_error("coordinator port not resolvable yet"); }
            return tcp_socket::connect_to(cfg.host, port);
        } catch (const io_error& e) {
            const int delay =
                backoff_delay_ms(cfg.backoff_initial_ms, cfg.backoff_max_ms, attempt, jitter);
            if (clock::now() + std::chrono::milliseconds(delay) >= deadline) {
                throw io_error(std::string(phase) + " budget of " +
                               std::to_string(deadline_ms) + " ms exhausted: " + e.what());
            }
            LOG_DEBUG << "worker '" << cfg.name << "': " << phase << " attempt " << attempt + 1
                      << " failed (" << e.what() << "); retrying in " << delay << " ms";
            std::this_thread::sleep_for(std::chrono::milliseconds(delay));
        }
    }
}

std::uint64_t parse_lease(const json_object& work) {
    const std::string& text = work.at("lease").as_string();
    try {
        std::size_t pos = 0;
        const unsigned long long value = std::stoull(text, &pos);
        if (pos != text.size()) { throw std::invalid_argument("trailing characters"); }
        return value;
    } catch (const std::exception&) {
        throw io_error("malformed lease id '" + text + "'");
    }
}

/// How one session over one socket ended.
enum class session_end {
    shutdown,   ///< coordinator declared the job complete
    rejected,   ///< handshake refused — retrying would refuse again
    died,       ///< die_after_units fired
    transport,  ///< socket failed mid-session — candidate for resume
};

}  // namespace

int backoff_delay_ms(int initial_ms, int max_ms, int attempt, rng& jitter) {
    const long long initial = std::max(1, initial_ms);
    const long long cap = std::max(initial, static_cast<long long>(max_ms));
    long long delay = initial;
    for (int i = 0; i < attempt && delay < cap; ++i) { delay *= 2; }
    delay = std::min(delay, cap);
    const long long lo = std::max<long long>(1, delay / 2);
    return static_cast<int>(
        lo + static_cast<long long>(
                 jitter.uniform_index(static_cast<std::uint64_t>(delay - lo + 1))));
}

worker::worker(worker_config cfg, const sequential& model, const model_snapshot& pretrained,
               const dataset& train_data, const dataset& test_data,
               const array_config& array, fat_config trainer_cfg,
               resilience_config sweep_cfg)
    : cfg_(std::move(cfg)),
      model_(model),
      pretrained_(pretrained),
      train_data_(train_data),
      test_data_(test_data),
      array_(array),
      trainer_cfg_(trainer_cfg),
      sweep_cfg_(std::move(sweep_cfg)) {}

worker_report worker::run() {
    worker_report report;
    const std::string fingerprint =
        cfg_.fingerprint.empty() ? resilience_fingerprint(sweep_cfg_) : cfg_.fingerprint;
    rng jitter(derive_backoff_seed(cfg_));

    const std::vector<sweep_cell> grid = enumerate_sweep_cells(sweep_cfg_);
    const std::string table_fingerprint = resilience_fingerprint(sweep_cfg_);
    // One clone and one trainer serve every lease, sweep cells and chips
    // alike, built on the first work unit.
    std::optional<episode_worker> episodes;
    std::size_t units_received = 0;
    // A computed result whose send failed: carried across the reconnect and
    // resent first thing in the next session (the coordinator routes it by
    // lease, or drops it as a stray and re-executes the unit — same bytes
    // either way).
    std::optional<json_value> unsent_result;

    // One admitted session over one socket. Returns how it ended; transport
    // endings leave `unsent_result` primed for the next session. `admitted`
    // reports whether the handshake completed — a session that dies earlier
    // must keep consuming its outage's reconnect budget, or a half-alive
    // endpoint (a chaos proxy whose coordinator is gone accepts every dial
    // and then drops it) would grant a fresh budget per dial, forever.
    const auto run_session = [&](tcp_socket& sock, bool resumed,
                                 bool& admitted) -> session_end {
        // The heartbeat thread and the main loop share the socket for
        // writes; reads stay on the main thread only.
        std::mutex send_mutex;
        const auto send_message = [&](const json_value& message) {
            std::lock_guard<std::mutex> lock(send_mutex);
            sock.send_all(encode_frame(message));
        };
        frame_decoder decoder;
        const auto read_message = [&]() -> std::optional<json_value> {
            for (;;) {
                if (std::optional<json_value> message = decoder.next()) { return message; }
                char buf[16384];
                const tcp_socket::recv_result r = sock.recv_some(buf, sizeof buf);
                if (r.closed) { return std::nullopt; }
                decoder.feed(buf, r.bytes);
            }
        };

        std::optional<json_value> first;
        try {
            send_message(make_hello(fingerprint, cfg_.name, resumed));
            first = read_message();
        } catch (const io_error&) {
            first.reset();
        }
        if (!first.has_value()) { return session_end::transport; }
        const std::string first_type = message_type(*first);
        if (first_type == "shutdown") {
            // A finished coordinator answers a late hello (one whose
            // shutdown frame was lost) this way: the job is complete.
            report.shutdown_received = true;
            report.shutdown_reason = first->as_object().at("reason").as_string();
            LOG_INFO << "worker '" << cfg_.name << "': job already complete ("
                     << report.shutdown_reason << ")";
            return session_end::shutdown;
        }
        if (first_type == "reject") {
            report.rejected = true;
            report.reject_reason = first->as_object().at("reason").as_string();
            LOG_WARN << "worker '" << cfg_.name << "': rejected by the coordinator: "
                     << report.reject_reason;
            return session_end::rejected;
        }
        REDUCE_CHECK(first_type == "welcome",
                     "worker expected welcome, reject or shutdown, got '" << first_type << "'");
        const json_object& welcome = first->as_object();
        REDUCE_CHECK(welcome.at("version").as_int() == protocol_version,
                     "coordinator speaks protocol version " << welcome.at("version").as_int()
                                                            << ", this worker "
                                                            << protocol_version);
        const int heartbeat_ms = static_cast<int>(welcome.at("heartbeat_ms").as_int());
        const bool want_snapshots = welcome.at("want_snapshots").as_bool();
        admitted = true;
        if (resumed) {
            ++report.reconnects;
            LOG_INFO << "worker '" << cfg_.name << "': session resumed ("
                     << welcome.at("job").as_string() << " job)";
        } else {
            LOG_INFO << "worker '" << cfg_.name << "': admitted to a "
                     << welcome.at("job").as_string() << " job";
        }

        // Heartbeats keep the active lease alive while the main thread is
        // deep in a training computation. Per-session: the thread dies with
        // its socket, so a resumed session can never heartbeat an old lease.
        std::mutex hb_mutex;
        std::condition_variable hb_cv;
        bool hb_stop = false;
        std::atomic<std::uint64_t> hb_lease{0};
        std::thread heartbeats([&] {
            std::unique_lock<std::mutex> lock(hb_mutex);
            const auto interval = std::chrono::milliseconds(std::max(1, heartbeat_ms));
            while (!hb_cv.wait_for(lock, interval, [&] { return hb_stop; })) {
                const std::uint64_t lease = hb_lease.load(std::memory_order_relaxed);
                if (lease == 0) { continue; }
                try {
                    std::lock_guard<std::mutex> send_lock(send_mutex);
                    if (!sock.valid()) { return; }
                    sock.send_all(encode_frame(make_heartbeat(lease)));
                } catch (const io_error&) {
                    return;  // the main loop will notice the broken connection
                }
            }
        });
        const auto stop_heartbeats = [&] {
            {
                std::lock_guard<std::mutex> lock(hb_mutex);
                hb_stop = true;
            }
            hb_cv.notify_all();
            heartbeats.join();
        };

        try {
            if (unsent_result.has_value()) {
                send_message(*unsent_result);
                unsent_result.reset();
                ++report.results_resent;
            }
            // One request is always outstanding: this one, then one per work
            // frame, sent before that unit computes. The next unit is then
            // already in the socket when the current one finishes, so the
            // coordinator's turn (decode, journal, fsync, encode) overlaps
            // training instead of stalling it.
            send_message(make_request_work());
            for (;;) {
                std::optional<json_value> message = read_message();
                if (!message.has_value()) {
                    stop_heartbeats();
                    return session_end::transport;
                }
                const std::string type = message_type(*message);
                if (type == "shutdown") {
                    report.shutdown_received = true;
                    report.shutdown_reason = message->as_object().at("reason").as_string();
                    stop_heartbeats();
                    return session_end::shutdown;
                }
                if (type != "work") {
                    throw io_error("worker expected work or shutdown, got '" + type + "'");
                }
                ++units_received;
                if (cfg_.die_after_units != 0 && units_received >= cfg_.die_after_units) {
                    // Injected mid-lease death: vanish with the lease held,
                    // no result and no goodbye — what a SIGKILLed process
                    // looks like from the coordinator's side.
                    LOG_WARN << "worker '" << cfg_.name
                             << "': failure injection - dying mid-lease";
                    report.died = true;
                    {
                        std::lock_guard<std::mutex> lock(send_mutex);
                        sock.close();
                    }
                    stop_heartbeats();
                    return session_end::died;
                }
                send_message(make_request_work());
                const json_object& work = message->as_object();
                const std::uint64_t lease = parse_lease(work);
                hb_lease.store(lease, std::memory_order_relaxed);
                const std::string& kind = work.at("kind").as_string();
                if (kind != "sweep_cells" && kind != "fleet_chip") {
                    throw io_error("unknown work kind '" + kind + "'");
                }
                if (!episodes) {
                    episodes.emplace(episode_source{model_, pretrained_, train_data_,
                                                    test_data_, trainer_cfg_});
                }
                fault_aware_trainer& trainer = episodes->trainer();
                if (kind == "sweep_cells") {
                    std::vector<sweep_cell> cells;
                    for (const json_value& index : work.at("cells").as_array()) {
                        const auto i = static_cast<std::size_t>(index.as_int());
                        if (i >= grid.size()) {
                            throw io_error("work unit cell index " + std::to_string(i) +
                                           " outside the sweep grid");
                        }
                        cells.push_back(grid[i]);
                    }
                    if (cells.empty()) { throw io_error("sweep work unit with no cells"); }
                    std::vector<resilience_run> runs;
                    for (const sweep_cell& cell : cells) {
                        runs.push_back(
                            run_sweep_cell(trainer, pretrained_, array_, sweep_cfg_, cell));
                    }
                    ++report.sweep_units;
                    report.cells += runs.size();
                    const resilience_table part(std::move(runs), sweep_cfg_.max_epochs,
                                                table_fingerprint, grid.size());
                    // Stash-then-send: if the send throws, the result rides
                    // the reconnect instead of being recomputed.
                    unsent_result = make_sweep_result(lease, part.to_json());
                } else {
                    const chip c = chip_from_json(work.at("chip"));
                    const epoch_allocation alloc =
                        allocation_from_json(work.at("allocation"));
                    const double constraint = work.at("constraint").as_number();
                    const double effective_rate = work.at("effective_rate").as_number();
                    // The timeline rides the shared sweep config (part of
                    // the fingerprint handshake), so a worker and the
                    // --local path replay identical per-chip events.
                    std::string snapshot;
                    const chip_outcome outcome = tune_chip(
                        trainer, pretrained_, array_, sweep_cfg_.scenario, c, alloc,
                        constraint, effective_rate,
                        want_snapshots ? trained_model_observer([&](sequential& trained) {
                            snapshot = snapshot_to_bytes(snapshot_model(trained));
                        })
                                       : nullptr);
                    ++report.chips;
                    unsent_result = make_chip_result(lease, outcome, snapshot);
                }
                hb_lease.store(0, std::memory_order_relaxed);
                send_message(*unsent_result);
                unsent_result.reset();
            }
        } catch (const io_error& e) {
            // Transport endings (coordinator gone, garbage frame) are
            // candidates for resume, not exceptions — a worker outliving
            // its coordinator is normal.
            LOG_WARN << "worker '" << cfg_.name << "': connection error: " << e.what();
            stop_heartbeats();
            return session_end::transport;
        } catch (...) {
            stop_heartbeats();
            throw;
        }
    };

    // Initial connect: exhaustion throws (the pre-resume contract — a worker
    // that never finds its coordinator is misconfigured, not unlucky).
    tcp_socket sock = connect_with_backoff(cfg_, cfg_.connect_deadline_ms, jitter, "connect");
    bool resumed = false;
    // An "outage" spans everything from a transport failure until the next
    // ADMITTED session: failed dials, and dials that connect but die before
    // the welcome. One reconnect budget and one growing backoff schedule
    // cover the whole outage, so no endpoint behavior can stall a worker
    // past reconnect_deadline_ms per outage.
    std::optional<clock::time_point> outage_deadline;
    int outage_attempt = 0;
    for (;;) {
        bool admitted = false;
        const session_end end = run_session(sock, resumed, admitted);
        if (end != session_end::transport) { break; }
        if (cfg_.reconnect_deadline_ms <= 0) {
            report.connection_lost = true;
            break;
        }
        if (admitted || !outage_deadline.has_value()) {
            outage_deadline =
                clock::now() +
                std::chrono::milliseconds(std::max(1, cfg_.reconnect_deadline_ms));
            outage_attempt = 0;
        }
        // Back off before redialing even when the last dial "succeeded" —
        // the session may have lived microseconds.
        const int delay = backoff_delay_ms(cfg_.backoff_initial_ms, cfg_.backoff_max_ms,
                                           outage_attempt++, jitter);
        const int remaining = static_cast<int>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                                   *outage_deadline - clock::now())
                                                   .count());
        if (delay >= remaining) {
            LOG_WARN << "worker '" << cfg_.name << "': giving up on the job: reconnect budget of "
                     << cfg_.reconnect_deadline_ms << " ms exhausted";
            report.connection_lost = true;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(delay));
        try {
            sock = connect_with_backoff(cfg_, remaining - delay, jitter, "reconnect");
        } catch (const io_error& e) {
            LOG_WARN << "worker '" << cfg_.name << "': giving up on the job: " << e.what();
            report.connection_lost = true;
            break;
        }
        resumed = true;
    }
    LOG_INFO << "worker '" << cfg_.name << "': done (" << report.cells << " cells, "
             << report.chips << " chips, " << report.reconnects << " reconnects)";
    return report;
}

}  // namespace reduce::dist
