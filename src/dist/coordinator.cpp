#include "dist/coordinator.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <utility>

#include "util/base64.h"
#include "util/error.h"
#include "util/log.h"

namespace reduce::dist {

namespace {

/// Lease ids travel as decimal strings (JSON numbers are doubles; a u64
/// would lose precision past 2^53). Rejects trailing garbage.
std::uint64_t parse_lease(const json_value& message) {
    const std::string& text = message.as_object().at("lease").as_string();
    try {
        std::size_t pos = 0;
        const unsigned long long value = std::stoull(text, &pos);
        if (pos != text.size()) { throw std::invalid_argument("trailing characters"); }
        return value;
    } catch (const std::exception&) {
        throw io_error("malformed lease id '" + text + "'");
    }
}

/// Runs `decode` over a worker's result payload. Whatever the payload
/// fails — a type, a range, the fold's fingerprint or overlap check — is
/// the sender's fault: io_error, a protocol violation that drops the
/// connection and re-queues the unit, never a job failure.
template <typename Decode>
auto decode_result(Decode&& decode) {
    try {
        return decode();
    } catch (const error& e) {
        throw io_error(std::string("unusable result: ") + e.what());
    }
}

}  // namespace

fleet_job plan_fleet_job(sequential& model, const array_config& array,
                         const retraining_policy& policy, std::vector<chip> fleet,
                         const std::string& run_name) {
    // The same decision fleet_executor::run makes, so policies with
    // cross-chip context (binning) produce identical allocations here.
    fleet_plan plan = plan_fleet(model, array, policy, fleet);
    fleet_job job;
    job.constraint = plan.constraint;
    job.policy_name = run_name.empty() ? policy.name() : run_name;
    job.allocations = std::move(plan.allocations);
    job.effective_rates = std::move(plan.effective_rates);
    job.fleet = std::move(fleet);
    return job;
}

namespace {

void check_timing(const coordinator_config& cfg) {
    REDUCE_CHECK(cfg.heartbeat_ms >= 1, "heartbeat_ms must be positive");
    REDUCE_CHECK(cfg.lease_timeout_ms > cfg.heartbeat_ms,
                 "lease_timeout_ms must exceed heartbeat_ms or every lease expires");
    REDUCE_CHECK(cfg.drain_timeout_ms > cfg.heartbeat_ms,
                 "drain_timeout_ms must exceed heartbeat_ms or workers mid-heartbeat "
                 "never see the shutdown frame");
}

}  // namespace

coordinator::coordinator(coordinator_config cfg, sweep_job job)
    : cfg_(std::move(cfg)), kind_(job_kind::sweep), sweep_(std::move(job)) {
    check_timing(cfg_);
    REDUCE_CHECK(cfg_.cells_per_lease >= 1, "cells_per_lease must be >= 1");
    // enumerate validates the config; the coordinator only needs indices —
    // workers re-enumerate the same canonical grid locally.
    const std::vector<sweep_cell> cells = enumerate_sweep_cells(sweep_.cfg);
    const std::string fp = resilience_fingerprint(sweep_.cfg);
    if (cfg_.fingerprint.empty()) { cfg_.fingerprint = fp; }
    REDUCE_CHECK(cfg_.fingerprint == fp,
                 "coordinator fingerprint does not match its sweep config");
    for (std::size_t begin = 0; begin < cells.size(); begin += cfg_.cells_per_lease) {
        work_unit unit;
        const std::size_t end = std::min(cells.size(), begin + cfg_.cells_per_lease);
        for (std::size_t i = begin; i < end; ++i) { unit.cells.push_back(i); }
        units_.push_back(std::move(unit));
    }
    for (std::size_t u = 0; u < units_.size(); ++u) { pending_.push_back(u); }
    stats_.units_total = units_.size();
    done_ = done_promise_.get_future().share();
}

coordinator::coordinator(coordinator_config cfg, fleet_job job)
    : cfg_(std::move(cfg)), kind_(job_kind::fleet), fleet_(std::move(job)) {
    check_timing(cfg_);
    REDUCE_CHECK(!fleet_.fleet.empty(), "fleet job with no chips");
    REDUCE_CHECK(fleet_.allocations.size() == fleet_.fleet.size() &&
                     fleet_.effective_rates.size() == fleet_.fleet.size(),
                 "fleet job carries " << fleet_.allocations.size() << " allocations / "
                                      << fleet_.effective_rates.size() << " rates for "
                                      << fleet_.fleet.size() << " chips");
    REDUCE_CHECK(!cfg_.fingerprint.empty(),
                 "fleet coordinators need an explicit job fingerprint");
    units_.reserve(fleet_.fleet.size());
    for (std::size_t i = 0; i < fleet_.fleet.size(); ++i) {
        work_unit unit;
        unit.chip_index = i;
        units_.push_back(std::move(unit));
        pending_.push_back(i);
    }
    outcomes_.resize(fleet_.fleet.size());
    if (fleet_.collect_snapshots) {
        pending_models_.resize(fleet_.fleet.size());
        model_ready_.assign(fleet_.fleet.size(), false);
    }
    stats_.units_total = units_.size();
    done_ = done_promise_.get_future().share();
}

coordinator::wake_event::wake_event() : fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
    REDUCE_CHECK(fd >= 0, "coordinator: eventfd failed");
}

coordinator::wake_event::~wake_event() { ::close(fd); }

void coordinator::wake_event::signal() const {
    const std::uint64_t one = 1;
    // A full counter (EAGAIN) is already signalled; nothing else can fail.
    (void)!::write(fd, &one, sizeof one);
}

void coordinator::wake_event::drain() const {
    std::uint64_t count = 0;
    (void)!::read(fd, &count, sizeof count);
}

coordinator::~coordinator() {
    stop();
    if (loop_.joinable()) { loop_.join(); }
}

void coordinator::set_model_sink(model_sink sink) {
    REDUCE_CHECK(!loop_.joinable(), "install the model sink before start()");
    sink_ = std::move(sink);
}

void coordinator::start() {
    REDUCE_CHECK(!loop_.joinable(), "coordinator already started");
    // Replay before binding: a foreign or unreadable journal throws here,
    // synchronously, before any worker can connect. Runs after the model
    // sink is installed (set_model_sink precedes start) so replayed fleet
    // snapshots stream through it exactly like fresh ones.
    replay_journal();
    listener_.emplace(cfg_.bind_address, cfg_.port);
    port_ = listener_->port();
    LOG_INFO << "coordinator: serving a " << job_kind_name(kind_) << " job ("
             << units_.size() << " work units) on " << cfg_.bind_address << ":" << port_;
    loop_ = std::thread([this] { event_loop(); });
}

void coordinator::stop() {
    stop_.store(true, std::memory_order_relaxed);
    wake_.signal();
}

coordinator_stats coordinator::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

resilience_table coordinator::wait_table() {
    REDUCE_CHECK(kind_ == job_kind::sweep, "wait_table on a fleet coordinator");
    done_.get();  // rethrows the event loop's failure
    std::lock_guard<std::mutex> lock(mutex_);
    REDUCE_CHECK(table_result_.has_value(), "sweep result already consumed");
    resilience_table table = std::move(*table_result_);
    table_result_.reset();
    return table;
}

policy_outcome coordinator::wait_fleet() {
    REDUCE_CHECK(kind_ == job_kind::fleet, "wait_fleet on a sweep coordinator");
    done_.get();
    std::lock_guard<std::mutex> lock(mutex_);
    REDUCE_CHECK(fleet_result_.has_value(), "fleet result already consumed");
    policy_outcome outcome = std::move(*fleet_result_);
    fleet_result_.reset();
    return outcome;
}

void coordinator::event_loop() {
    try {
        run_event_loop();
        if (!job_done_) {
            fail(std::make_exception_ptr(
                error("coordinator stopped before the job completed")));
        }
    } catch (...) {
        fail(std::current_exception());
    }
}

void coordinator::run_event_loop() {
    std::vector<::pollfd> fds;
    while (true) {
        if (stop_.load(std::memory_order_relaxed)) { break; }
        // A finished job lingers for drain_timeout_ms: it flushes the
        // shutdown broadcast and answers late hellos (a worker whose
        // shutdown frame was lost redials) with shutdown too.
        if (job_done_ && clock::now() >= drain_deadline_) { break; }

        fds.clear();
        fds.push_back({wake_.fd, POLLIN, 0});
        fds.push_back({listener_->fd(), POLLIN, 0});
        for (auto& [fd, conn] : conns_) {
            short events = POLLIN;
            if (!conn.outbox.empty()) { events |= POLLOUT; }
            fds.push_back({fd, events, 0});
        }

        // Sleep until the next lease deadline, capped so newly queued work
        // stays responsive; stop() wakes the poll through wake_.
        int timeout_ms = 100;
        const clock::time_point now = clock::now();
        for (const auto& [id, lease] : leases_) {
            if (!lease.active) { continue; }
            const auto until = std::chrono::duration_cast<std::chrono::milliseconds>(
                                   lease.deadline - now)
                                   .count();
            timeout_ms = static_cast<int>(std::min<long long>(
                timeout_ms, std::max<long long>(0, until)));
        }
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
        if ((fds.front().revents & POLLIN) != 0) { wake_.drain(); }

        while (std::optional<tcp_socket> sock = listener_->accept_one()) {
            add_connection(std::move(*sock));
        }

        for (const ::pollfd& p : fds) {
            if (p.fd == listener_->fd() || p.fd == wake_.fd) { continue; }
            auto it = conns_.find(p.fd);
            if (it == conns_.end()) { continue; }
            connection& conn = it->second;

            if ((p.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
                char buf[16384];
                bool dropped = false;
                for (;;) {
                    const tcp_socket::recv_result r = conn.sock.recv_some(buf, sizeof buf);
                    if (r.would_block) { break; }
                    if (r.closed) {
                        drop_connection(p.fd, "peer closed the connection");
                        dropped = true;
                        break;
                    }
                    conn.decoder.feed(buf, r.bytes);
                    if (r.bytes < sizeof buf) { break; }
                }
                if (dropped) { continue; }
                try {
                    while (std::optional<json_value> message = conn.decoder.next()) {
                        handle_message(p.fd, conn, *message);
                        if (conns_.find(p.fd) == conns_.end()) { break; }
                    }
                } catch (const io_error& e) {
                    {
                        std::lock_guard<std::mutex> lock(mutex_);
                        ++stats_.frames_rejected;
                    }
                    drop_connection(p.fd, std::string("protocol violation: ") + e.what());
                    continue;
                }
            }

            if (conns_.find(p.fd) == conns_.end()) { continue; }
            if (!conn.outbox.empty()) {
                try {
                    flush_outbox(conn);
                } catch (const io_error& e) {
                    drop_connection(p.fd, std::string("send failed: ") + e.what());
                    continue;
                }
            }
            if (conn.closing && conn.outbox.empty()) {
                drop_connection(p.fd, job_done_ ? "job complete" : "handshake rejected");
            }
        }

        expire_leases(clock::now());
    }

    for (auto& [fd, conn] : conns_) { conn.sock.close(); }
    conns_.clear();
    listener_->close();
}

void coordinator::add_connection(tcp_socket sock) {
    const int fd = sock.fd();
    connection conn;
    conn.sock = std::move(sock);
    conns_.emplace(fd, std::move(conn));
    LOG_DEBUG << "coordinator: connection accepted (fd " << fd << ")";
}

void coordinator::drop_connection(int fd, const std::string& why) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) { return; }
    const std::string who =
        it->second.peer_name.empty() ? "fd " + std::to_string(fd) : it->second.peer_name;
    if (job_done_) {
        LOG_DEBUG << "coordinator: closing '" << who << "': " << why;
    } else {
        LOG_WARN << "coordinator: dropping '" << who << "': " << why;
    }
    const std::vector<std::uint64_t> leases = std::move(it->second.active_leases);
    parked_.erase(std::remove(parked_.begin(), parked_.end(), fd), parked_.end());
    it->second.sock.close();
    conns_.erase(it);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.connections_dropped;
    }
    for (const std::uint64_t lease : leases) { revoke_lease(lease); }
}

void coordinator::queue_frame(connection& conn, const json_value& message) {
    conn.outbox += encode_frame(message);
}

bool coordinator::flush_outbox(connection& conn) {
    while (!conn.outbox.empty()) {
        const std::size_t sent = conn.sock.send_some(conn.outbox.data(), conn.outbox.size());
        if (sent == 0) { return false; }  // kernel buffer full; POLLOUT resumes
        conn.outbox.erase(0, sent);
    }
    return true;
}

void coordinator::handle_message(int fd, connection& conn, const json_value& message) {
    if (conn.closing) { return; }  // ignore chatter from a rejected peer
    const std::string& type = message_type(message);
    if (!conn.admitted) {
        if (type != "hello") {
            throw io_error("expected hello as the first message, got '" + type + "'");
        }
        handle_hello(fd, conn, message);
        return;
    }
    if (type == "request_work") {
        handle_request_work(fd, conn);
    } else if (type == "heartbeat") {
        handle_heartbeat(fd, conn, message);
    } else if (type == "result") {
        handle_result(fd, conn, message);
    } else {
        throw io_error("unexpected message type '" + type + "'");
    }
}

void coordinator::handle_hello(int fd, connection& conn, const json_value& message) {
    (void)fd;
    const json_object& obj = message.as_object();
    const std::int64_t version = obj.at("version").as_int();
    conn.peer_name = obj.at("name").as_string();
    const std::string& fingerprint = obj.at("fingerprint").as_string();
    const bool resumed = obj.contains("resumed") && obj.at("resumed").as_bool();

    std::string reason;
    if (version != protocol_version) {
        reason = "protocol version " + std::to_string(version) + " != coordinator's " +
                 std::to_string(protocol_version);
    } else if (fingerprint != cfg_.fingerprint) {
        reason = "job fingerprint mismatch (worker built from a different config)";
    }
    if (!reason.empty()) {
        LOG_WARN << "coordinator: rejecting worker '" << conn.peer_name << "': " << reason;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.workers_rejected;
        }
        queue_frame(conn, make_reject(reason));
        conn.closing = true;
        return;
    }

    if (job_done_) {
        // Too late for work: the worker missed the shutdown broadcast (its
        // frame lost, or it was away), so it gets one now, then the close.
        queue_frame(conn, make_shutdown("job complete"));
        conn.shutdown_sent = true;
        conn.closing = true;
        return;
    }
    conn.admitted = true;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.workers_admitted;
        if (resumed) { ++stats_.workers_resumed; }
    }
    const bool want_snapshots = kind_ == job_kind::fleet && fleet_.collect_snapshots;
    queue_frame(conn,
                make_welcome(kind_, cfg_.heartbeat_ms, cfg_.lease_timeout_ms, want_snapshots));
    LOG_INFO << "coordinator: admitted worker '" << conn.peer_name << "'"
             << (resumed ? " (resumed session)" : "");
}

void coordinator::handle_request_work(int fd, connection& conn) {
    if (job_done_) {
        if (!conn.shutdown_sent) {
            queue_frame(conn, make_shutdown("job complete"));
            conn.shutdown_sent = true;
        }
        return;
    }
    grant_to(fd, conn);
}

void coordinator::grant_to(int fd, connection& conn) {
    // Skip queue entries that went stale while queued (finished via a
    // straggler, or re-leased through another path).
    while (!pending_.empty()) {
        const work_unit& unit = units_[pending_.front()];
        if (unit.done || unit.leased) {
            pending_.pop_front();
            continue;
        }
        break;
    }
    if (pending_.empty()) {
        if (std::find(parked_.begin(), parked_.end(), fd) == parked_.end()) {
            parked_.push_back(fd);
        }
        return;
    }
    const std::size_t unit_id = pending_.front();
    pending_.pop_front();
    const std::uint64_t lease_id = next_lease_++;
    lease_info lease;
    lease.unit = unit_id;
    lease.conn_fd = fd;
    lease.active = true;
    lease.deadline = clock::now() + std::chrono::milliseconds(cfg_.lease_timeout_ms);
    leases_[lease_id] = lease;
    units_[unit_id].leased = true;
    conn.active_leases.push_back(lease_id);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.leases_granted;
    }
    queue_frame(conn, work_message(lease_id, units_[unit_id]));
    LOG_DEBUG << "coordinator: lease " << lease_id << " (unit " << unit_id << ") -> '"
              << conn.peer_name << "'";
}

json_value coordinator::work_message(std::uint64_t lease_id, const work_unit& unit) const {
    if (kind_ == job_kind::sweep) { return make_sweep_work(lease_id, unit.cells); }
    const std::size_t i = unit.chip_index;
    return make_chip_work(lease_id, fleet_.fleet[i], fleet_.allocations[i],
                          fleet_.constraint, fleet_.effective_rates[i]);
}

void coordinator::grant_parked() {
    while (!parked_.empty()) {
        bool grantable = false;
        for (const std::size_t unit_id : pending_) {
            if (!units_[unit_id].done && !units_[unit_id].leased) {
                grantable = true;
                break;
            }
        }
        if (!grantable) { return; }
        const int fd = parked_.front();
        parked_.pop_front();
        auto it = conns_.find(fd);
        if (it == conns_.end() || !it->second.admitted || it->second.closing) { continue; }
        grant_to(fd, it->second);
    }
}

void coordinator::handle_heartbeat(int fd, connection& conn, const json_value& message) {
    const std::uint64_t lease_id = parse_lease(message);
    auto it = leases_.find(lease_id);
    if (it == leases_.end()) {
        throw io_error("heartbeat for unknown lease " + std::to_string(lease_id));
    }
    // A heartbeat for a revoked lease is a straggler still computing — let
    // it run; its result is accepted or deduplicated on arrival. A live one
    // vouches for the whole connection: the worker names the unit it is
    // computing, and the unit queued behind it must not expire meanwhile.
    if (it->second.active && it->second.conn_fd == fd) {
        const clock::time_point deadline =
            clock::now() + std::chrono::milliseconds(cfg_.lease_timeout_ms);
        for (const std::uint64_t held : conn.active_leases) {
            leases_.at(held).deadline = deadline;
        }
    }
}

void coordinator::handle_result(int fd, connection& conn, const json_value& message) {
    (void)fd;
    (void)conn;
    const std::uint64_t lease_id = parse_lease(message);
    auto it = leases_.find(lease_id);
    if (it == leases_.end()) {
        // A lease this incarnation never granted: a resumed worker delivering
        // work leased by a pre-crash coordinator. The lease→unit mapping died
        // with that incarnation, so the bytes cannot be routed — drop the
        // result and let the unit re-execute (idempotent, same bytes).
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.stray_results;
        LOG_DEBUG << "coordinator: stray result for unknown lease " << lease_id
                  << " dropped (granted by a previous incarnation?)";
        return;
    }
    lease_info& lease = it->second;
    if (lease.active) {
        // Accept from any admitted connection, not only the lease's own: a
        // worker that lost its socket mid-send resumes on a fresh fd and
        // resends. Deactivate the lease wherever it was recorded.
        lease.active = false;
        auto cit = conns_.find(lease.conn_fd);
        if (cit != conns_.end()) {
            auto& owned = cit->second.active_leases;
            owned.erase(std::remove(owned.begin(), owned.end(), lease_id), owned.end());
        }
        units_[lease.unit].leased = false;
    }
    work_unit& unit = units_[lease.unit];
    if (unit.done) {
        // Straggler duplicate: the unit re-executed elsewhere and finished
        // first. Same bytes either way — drop it.
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.duplicate_results;
        LOG_DEBUG << "coordinator: duplicate result for lease " << lease_id << " dropped";
        return;
    }
    try {
        if (kind_ == job_kind::sweep) {
            accept_sweep_result(message);
        } else {
            accept_fleet_result(unit, message);
        }
    } catch (const io_error&) {
        // The payload was unusable (accept_* report every decode or
        // validation failure as io_error), so the unit is still open —
        // re-queue it before the connection is dropped for the violation.
        if (!unit.done && !unit.leased) {
            pending_.push_back(lease.unit);
            {
                std::lock_guard<std::mutex> lock(mutex_);
                ++stats_.leases_reassigned;
            }
            grant_parked();
        }
        throw;
    }
    if (journal_.is_open()) {
        // Durability before acknowledgment: a crash after this append replays
        // the unit, a crash before it recomputes the unit — both converge on
        // the same bytes. A disk failure, unlike a protocol violation, must
        // fail the JOB (the durability contract is broken), so it is
        // rethrown as a non-io_error the event loop treats as fatal.
        try {
            journal_.append(journal_record(lease.unit, message));
        } catch (const io_error& e) {
            throw error(std::string("cannot journal completed unit: ") + e.what());
        }
    }
    complete_unit(lease.unit);
}

json_value coordinator::journal_record(std::size_t unit_id, const json_value& message) const {
    const json_object& obj = message.as_object();
    json_object record;
    record.set("type", json_value("unit"));
    record.set("unit", json_value(unit_id));
    if (kind_ == job_kind::sweep) {
        record.set("table", obj.at("table"));
    } else {
        record.set("outcome", obj.at("outcome"));
        if (obj.contains("snapshot")) { record.set("snapshot", obj.at("snapshot")); }
    }
    return json_value(std::move(record));
}

void coordinator::replay_journal() {
    if (cfg_.journal_dir.empty()) { return; }
    const std::vector<json_value> records =
        journal_.open(cfg_.journal_dir, kind_, cfg_.fingerprint, units_.size());
    for (const json_value& record : records) {
        const json_object& obj = record.as_object();
        const std::int64_t raw = obj.at("unit").as_int();
        if (raw < 0 || static_cast<std::size_t>(raw) >= units_.size()) {
            throw io_error("journal replays unit " + std::to_string(raw) +
                           " outside the job's " + std::to_string(units_.size()) +
                           " units");
        }
        const std::size_t unit_id = static_cast<std::size_t>(raw);
        if (units_[unit_id].done) {
            LOG_WARN << "coordinator: journal repeats unit " << unit_id << "; ignoring";
            continue;
        }
        if (kind_ == job_kind::sweep) {
            accept_sweep_result(record);
        } else {
            accept_fleet_result(units_[unit_id], record);
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.journal_units_replayed;
        }
        complete_unit(unit_id);
    }
    if (!records.empty()) {
        pending_.clear();
        for (std::size_t u = 0; u < units_.size(); ++u) {
            if (!units_[u].done) { pending_.push_back(u); }
        }
        LOG_INFO << "coordinator: journal recovered " << records.size() << " unit(s); "
                 << pending_.size() << " left to compute";
    }
}

void coordinator::complete_unit(std::size_t unit_id) {
    units_[unit_id].done = true;
    ++done_units_;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.units_completed;
    }
    if (done_units_ == units_.size()) { finish_job(); }
}

void coordinator::accept_sweep_result(const json_value& message) {
    decode_result([&] {
        resilience_table part = resilience_table::from_json(message.as_object().at("table"));
        if (acc_.has_value()) {  // validates; leaves acc_ untouched on failure
            resilience_table::merge_into(*acc_, part);
            return;
        }
        if (part.fingerprint() != cfg_.fingerprint) {
            throw io_error("result table fingerprint does not match the job");
        }
        std::size_t total_cells = 0;
        for (const work_unit& unit : units_) { total_cells += unit.cells.size(); }
        if (part.grid_cells() != total_cells) {
            throw io_error("result table grid size " + std::to_string(part.grid_cells()) +
                           " != job grid " + std::to_string(total_cells));
        }
        acc_.emplace(std::move(part));
    });
}

void coordinator::accept_fleet_result(const work_unit& unit, const json_value& message) {
    const std::size_t index = unit.chip_index;
    const bool want_model = fleet_.collect_snapshots && sink_;
    // The whole payload decodes before any state changes.
    model_snapshot model;
    const chip_outcome outcome = decode_result([&] {
        const json_object& obj = message.as_object();
        chip_outcome decoded = chip_outcome_from_json(obj.at("outcome"));
        if (decoded.chip_id != fleet_.fleet[index].id) {
            throw io_error("result for chip " + std::to_string(decoded.chip_id) +
                           " on the lease of chip " + std::to_string(fleet_.fleet[index].id));
        }
        if (want_model) {
            if (!obj.contains("snapshot")) {
                throw io_error("fleet result lacks the requested model snapshot");
            }
            model = snapshot_from_bytes(base64_decode(obj.at("snapshot").as_string()));
        }
        return decoded;
    });
    outcomes_[index] = outcome;
    if (want_model) {
        pending_models_[index] = std::move(model);
        model_ready_[index] = true;
        // Same fleet-order prefix streaming as fleet_executor: chip i sinks
        // once chips 0..i have all landed, whatever the arrival order.
        while (next_sink_ < model_ready_.size() && model_ready_[next_sink_]) {
            sink_(fleet_.fleet[next_sink_], pending_models_[next_sink_]);
            pending_models_[next_sink_] = model_snapshot{};  // free eagerly
            ++next_sink_;
        }
    }
}

void coordinator::revoke_lease(std::uint64_t lease_id) {
    auto it = leases_.find(lease_id);
    if (it == leases_.end() || !it->second.active) { return; }
    lease_info& lease = it->second;
    lease.active = false;
    auto cit = conns_.find(lease.conn_fd);
    if (cit != conns_.end()) {
        auto& owned = cit->second.active_leases;
        owned.erase(std::remove(owned.begin(), owned.end(), lease_id), owned.end());
    }
    work_unit& unit = units_[lease.unit];
    unit.leased = false;
    if (!unit.done) {
        pending_.push_back(lease.unit);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.leases_reassigned;
        }
        grant_parked();
    }
}

void coordinator::expire_leases(clock::time_point now) {
    std::vector<std::uint64_t> expired;
    for (const auto& [id, lease] : leases_) {
        if (lease.active && lease.deadline <= now) { expired.push_back(id); }
    }
    for (const std::uint64_t id : expired) {
        LOG_WARN << "coordinator: lease " << id << " missed its heartbeat deadline; "
                 << "re-queueing its unit";
        revoke_lease(id);
    }
}

void coordinator::finish_job() {
    job_done_ = true;
    drain_deadline_ = clock::now() + std::chrono::milliseconds(cfg_.drain_timeout_ms);
    if (kind_ == job_kind::sweep) {
        REDUCE_CHECK(acc_.has_value() && acc_->complete(),
                     "sweep job finished with an incomplete table");
        if (!sweep_.cache_dir.empty()) {
            resilience_cache(sweep_.cache_dir).store(*acc_, sweep_.cfg);
        }
        std::lock_guard<std::mutex> lock(mutex_);
        table_result_ = std::move(*acc_);
        acc_.reset();
    } else {
        policy_outcome outcome;
        outcome.policy_name = fleet_.policy_name;
        outcome.accuracy_constraint = fleet_.constraint;
        outcome.chips.reserve(outcomes_.size());
        for (const std::optional<chip_outcome>& chip : outcomes_) {
            REDUCE_CHECK(chip.has_value(), "fleet job finished with a missing chip outcome");
            outcome.chips.push_back(*chip);
        }
        std::lock_guard<std::mutex> lock(mutex_);
        fleet_result_ = std::move(outcome);
    }
    fulfill_done();
    for (auto& [fd, conn] : conns_) {
        if (conn.admitted && !conn.shutdown_sent) {
            queue_frame(conn, make_shutdown("job complete"));
            conn.shutdown_sent = true;
        }
    }
    parked_.clear();
    LOG_INFO << "coordinator: " << job_kind_name(kind_) << " job complete ("
             << units_.size() << " units)";
}

void coordinator::fulfill_done() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (done_set_) { return; }
    done_set_ = true;
    done_promise_.set_value();
}

void coordinator::fail(std::exception_ptr error) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (done_set_) { return; }
    done_set_ = true;
    done_promise_.set_exception(std::move(error));
}

}  // namespace reduce::dist
