#include "dist/protocol.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "fault/serialization.h"
#include "util/base64.h"
#include "util/error.h"

namespace reduce::dist {

// --- Framing ---------------------------------------------------------------

std::string encode_frame(const json_value& message) {
    const std::string payload = message.dump();
    REDUCE_CHECK(!payload.empty() && payload.size() <= max_frame_payload,
                 "frame payload of " << payload.size() << " bytes out of range");
    const auto n = static_cast<std::uint32_t>(payload.size());
    std::string frame;
    frame.reserve(4 + payload.size());
    frame.push_back(static_cast<char>((n >> 24) & 0xff));
    frame.push_back(static_cast<char>((n >> 16) & 0xff));
    frame.push_back(static_cast<char>((n >> 8) & 0xff));
    frame.push_back(static_cast<char>(n & 0xff));
    frame += payload;
    return frame;
}

void frame_decoder::feed(const char* data, std::size_t n) { buffer_.append(data, n); }

std::optional<json_value> frame_decoder::next() {
    if (buffer_.size() < 4) { return std::nullopt; }
    const auto b = [&](std::size_t i) {
        return static_cast<std::uint32_t>(static_cast<unsigned char>(buffer_[i]));
    };
    const std::uint32_t length = (b(0) << 24) | (b(1) << 16) | (b(2) << 8) | b(3);
    if (length == 0 || length > max_frame_payload) {
        throw io_error("malformed frame: payload length " + std::to_string(length));
    }
    if (buffer_.size() < 4 + static_cast<std::size_t>(length)) { return std::nullopt; }
    const std::string payload = buffer_.substr(4, length);
    buffer_.erase(0, 4 + static_cast<std::size_t>(length));
    json_value message = json_parse(payload);  // throws io_error on garbage
    if (!message.is_object()) { throw io_error("frame payload is not a JSON object"); }
    return message;
}

// --- Sockets ---------------------------------------------------------------

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
    throw io_error(what + ": " + std::strerror(errno));
}

void set_fd_nonblocking(int fd, bool nonblocking) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0) { throw_errno("fcntl(F_GETFL)"); }
    const int wanted = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
    if (::fcntl(fd, F_SETFL, wanted) < 0) { throw_errno("fcntl(F_SETFL)"); }
}

}  // namespace

tcp_socket::tcp_socket(tcp_socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

tcp_socket& tcp_socket::operator=(tcp_socket&& other) noexcept {
    if (this != &other) {
        close();
        fd_ = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

tcp_socket tcp_socket::connect_to(const std::string& host, int port) {
    REDUCE_CHECK(port > 0 && port < 65536, "connect_to needs a valid port, got " << port);
    ::addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    ::addrinfo* results = nullptr;
    const int rc =
        ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &results);
    if (rc != 0) {
        throw io_error("cannot resolve " + host + ": " + ::gai_strerror(rc));
    }
    int fd = -1;
    std::string last_error = "no addresses";
    for (::addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) {
            last_error = std::strerror(errno);
            continue;
        }
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) { break; }
        last_error = std::strerror(errno);
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(results);
    if (fd < 0) {
        throw io_error("cannot connect to " + host + ":" + std::to_string(port) + " (" +
                       last_error + ")");
    }
    // Frames are small and latency-sensitive (heartbeats, work grants);
    // Nagle coalescing only adds round trips here.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return tcp_socket(fd);
}

void tcp_socket::set_nonblocking(bool nonblocking) {
    REDUCE_CHECK(valid(), "set_nonblocking on a closed socket");
    set_fd_nonblocking(fd_, nonblocking);
}

void tcp_socket::send_all(const std::string& bytes) {
    REDUCE_CHECK(valid(), "send_all on a closed socket");
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const ::ssize_t n =
            ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) { continue; }
            throw_errno("send");
        }
        sent += static_cast<std::size_t>(n);
    }
}

std::size_t tcp_socket::send_some(const char* data, std::size_t n) {
    REDUCE_CHECK(valid(), "send_some on a closed socket");
    for (;;) {
        const ::ssize_t sent = ::send(fd_, data, n, MSG_NOSIGNAL);
        if (sent >= 0) { return static_cast<std::size_t>(sent); }
        if (errno == EINTR) { continue; }
        if (errno == EAGAIN || errno == EWOULDBLOCK) { return 0; }
        throw_errno("send");
    }
}

tcp_socket::recv_result tcp_socket::recv_some(char* buf, std::size_t cap) {
    REDUCE_CHECK(valid(), "recv_some on a closed socket");
    recv_result result;
    for (;;) {
        const ::ssize_t n = ::recv(fd_, buf, cap, 0);
        if (n > 0) {
            result.bytes = static_cast<std::size_t>(n);
            return result;
        }
        if (n == 0) {
            result.closed = true;
            return result;
        }
        if (errno == EINTR) { continue; }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            result.would_block = true;
            return result;
        }
        // Hard errors (ECONNRESET & co) read as a peer loss, not a crash:
        // the coordinator treats them exactly like an orderly close.
        result.closed = true;
        return result;
    }
}

void tcp_socket::close() {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

tcp_listener::tcp_listener(const std::string& address, int port) {
    REDUCE_CHECK(port >= 0 && port < 65536, "listener port out of range: " << port);
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) { throw_errno("socket"); }
    const int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    ::sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
        ::close(fd_);
        fd_ = -1;
        throw io_error("cannot parse bind address '" + address + "'");
    }
    if (::bind(fd_, reinterpret_cast<::sockaddr*>(&addr), sizeof addr) < 0) {
        const std::string what = std::strerror(errno);
        ::close(fd_);
        fd_ = -1;
        throw io_error("cannot bind " + address + ":" + std::to_string(port) + " (" + what +
                       ")");
    }
    if (::listen(fd_, 64) < 0) {
        const std::string what = std::strerror(errno);
        ::close(fd_);
        fd_ = -1;
        throw io_error("cannot listen (" + what + ")");
    }
    ::sockaddr_in bound{};
    ::socklen_t len = sizeof bound;
    if (::getsockname(fd_, reinterpret_cast<::sockaddr*>(&bound), &len) < 0) {
        const std::string what = std::strerror(errno);
        ::close(fd_);
        fd_ = -1;
        throw io_error("getsockname failed (" + what + ")");
    }
    port_ = static_cast<int>(ntohs(bound.sin_port));
    set_fd_nonblocking(fd_, true);
}

std::optional<tcp_socket> tcp_listener::accept_one() {
    REDUCE_CHECK(fd_ >= 0, "accept on a closed listener");
    for (;;) {
        const int fd = ::accept(fd_, nullptr, nullptr);
        if (fd >= 0) {
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
            set_fd_nonblocking(fd, true);
            return tcp_socket(fd);
        }
        if (errno == EINTR) { continue; }
        if (errno == EAGAIN || errno == EWOULDBLOCK) { return std::nullopt; }
        throw_errno("accept");
    }
}

void tcp_listener::close() {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

// --- Messages --------------------------------------------------------------

std::string job_kind_name(job_kind kind) {
    return kind == job_kind::sweep ? "sweep" : "fleet";
}

const std::string& message_type(const json_value& message) {
    const json_object& obj = message.as_object();
    if (!obj.contains("type")) { throw io_error("message lacks a 'type' member"); }
    return obj.at("type").as_string();
}

namespace {

json_object typed(const char* type) {
    json_object obj;
    obj.set("type", json_value(type));
    return obj;
}

}  // namespace

json_value make_hello(const std::string& fingerprint, const std::string& worker_name,
                      bool resumed) {
    json_object msg = typed("hello");
    msg.set("version", json_value(protocol_version));
    msg.set("fingerprint", json_value(fingerprint));
    msg.set("name", json_value(worker_name));
    msg.set("resumed", json_value(resumed));
    return json_value(std::move(msg));
}

json_value make_welcome(job_kind kind, int heartbeat_ms, int lease_timeout_ms,
                        bool want_snapshots) {
    json_object msg = typed("welcome");
    msg.set("version", json_value(protocol_version));
    msg.set("job", json_value(job_kind_name(kind)));
    msg.set("heartbeat_ms", json_value(heartbeat_ms));
    msg.set("lease_timeout_ms", json_value(lease_timeout_ms));
    msg.set("want_snapshots", json_value(want_snapshots));
    return json_value(std::move(msg));
}

json_value make_reject(const std::string& reason) {
    json_object msg = typed("reject");
    msg.set("reason", json_value(reason));
    return json_value(std::move(msg));
}

json_value make_request_work() { return json_value(typed("request_work")); }

json_value make_sweep_work(std::uint64_t lease, const std::vector<std::size_t>& cells) {
    json_object msg = typed("work");
    msg.set("lease", json_value(std::to_string(lease)));
    msg.set("kind", json_value("sweep_cells"));
    json_array indices;
    indices.reserve(cells.size());
    for (const std::size_t cell : cells) { indices.push_back(json_value(cell)); }
    msg.set("cells", json_value(std::move(indices)));
    return json_value(std::move(msg));
}

json_value make_chip_work(std::uint64_t lease, const chip& c, const epoch_allocation& alloc,
                          double constraint, double effective_rate) {
    json_object msg = typed("work");
    msg.set("lease", json_value(std::to_string(lease)));
    msg.set("kind", json_value("fleet_chip"));
    msg.set("chip", chip_to_json(c));
    msg.set("allocation", allocation_to_json(alloc));
    msg.set("constraint", json_value(constraint));
    msg.set("effective_rate", json_value(effective_rate));
    return json_value(std::move(msg));
}

json_value make_sweep_result(std::uint64_t lease, const json_value& table) {
    json_object msg = typed("result");
    msg.set("lease", json_value(std::to_string(lease)));
    msg.set("kind", json_value("sweep_cells"));
    msg.set("table", table);
    return json_value(std::move(msg));
}

json_value make_chip_result(std::uint64_t lease, const chip_outcome& outcome,
                            const std::string& snapshot_bytes) {
    json_object msg = typed("result");
    msg.set("lease", json_value(std::to_string(lease)));
    msg.set("kind", json_value("fleet_chip"));
    msg.set("outcome", chip_outcome_to_json(outcome));
    if (!snapshot_bytes.empty()) {
        msg.set("snapshot", json_value(base64_encode(snapshot_bytes)));
    }
    return json_value(std::move(msg));
}

json_value make_heartbeat(std::uint64_t lease) {
    json_object msg = typed("heartbeat");
    msg.set("lease", json_value(std::to_string(lease)));
    return json_value(std::move(msg));
}

json_value make_shutdown(const std::string& reason) {
    json_object msg = typed("shutdown");
    msg.set("reason", json_value(reason));
    return json_value(std::move(msg));
}

json_value chip_outcome_to_json(const chip_outcome& outcome) {
    json_object obj;
    obj.set("chip_id", json_value(outcome.chip_id));
    obj.set("nominal_fault_rate", json_value(outcome.nominal_fault_rate));
    obj.set("effective_fault_rate", json_value(outcome.effective_fault_rate));
    obj.set("masked_weight_fraction", json_value(outcome.masked_weight_fraction));
    obj.set("epochs_allocated", json_value(outcome.epochs_allocated));
    obj.set("epochs_run", json_value(outcome.epochs_run));
    obj.set("accuracy_before", json_value(outcome.accuracy_before));
    obj.set("final_accuracy", json_value(outcome.final_accuracy));
    obj.set("meets_constraint", json_value(outcome.meets_constraint));
    obj.set("selection_failed", json_value(outcome.selection_failed));
    // Timeline fields are emitted only when a timeline touched the chip, so
    // scenario-free runs keep their historical message bytes (journals of
    // old runs replay unchanged).
    if (outcome.events_applied != 0 || outcome.rollbacks != 0 || outcome.restarts != 0 ||
        outcome.hit_nonfinite) {
        obj.set("events_applied", json_value(outcome.events_applied));
        obj.set("rollbacks", json_value(outcome.rollbacks));
        obj.set("restarts", json_value(outcome.restarts));
        obj.set("hit_nonfinite", json_value(outcome.hit_nonfinite));
    }
    return json_value(std::move(obj));
}

chip_outcome chip_outcome_from_json(const json_value& value) {
    const json_object& obj = value.as_object();
    chip_outcome outcome;
    outcome.chip_id = static_cast<std::size_t>(obj.at("chip_id").as_int());
    outcome.nominal_fault_rate = obj.at("nominal_fault_rate").as_number();
    outcome.effective_fault_rate = obj.at("effective_fault_rate").as_number();
    outcome.masked_weight_fraction = obj.at("masked_weight_fraction").as_number();
    outcome.epochs_allocated = obj.at("epochs_allocated").as_number();
    outcome.epochs_run = obj.at("epochs_run").as_number();
    outcome.accuracy_before = obj.at("accuracy_before").as_number();
    outcome.final_accuracy = obj.at("final_accuracy").as_number();
    outcome.meets_constraint = obj.at("meets_constraint").as_bool();
    outcome.selection_failed = obj.at("selection_failed").as_bool();
    // Optional timeline fields (absent in scenario-free messages and in
    // journals recorded before fault timelines existed).
    if (obj.contains("events_applied")) {
        outcome.events_applied = static_cast<std::size_t>(obj.at("events_applied").as_int());
        outcome.rollbacks = static_cast<std::size_t>(obj.at("rollbacks").as_int());
        outcome.restarts = static_cast<std::size_t>(obj.at("restarts").as_int());
        outcome.hit_nonfinite = obj.at("hit_nonfinite").as_bool();
    }
    return outcome;
}

json_value allocation_to_json(const epoch_allocation& alloc) {
    json_object obj;
    obj.set("epochs", json_value(alloc.epochs));
    obj.set("selection_failed", json_value(alloc.selection_failed));
    obj.set("train_to_target", json_value(alloc.train_to_target));
    return json_value(std::move(obj));
}

epoch_allocation allocation_from_json(const json_value& value) {
    const json_object& obj = value.as_object();
    epoch_allocation alloc;
    alloc.epochs = obj.at("epochs").as_number();
    alloc.selection_failed = obj.at("selection_failed").as_bool();
    alloc.train_to_target = obj.at("train_to_target").as_bool();
    return alloc;
}

}  // namespace reduce::dist
