#include "dist/chaos.h"

#include <poll.h>
#include <sys/socket.h>

#include <chrono>
#include <utility>

#include "util/error.h"
#include "util/log.h"

namespace reduce::dist {

// --- chaos_schedule ---------------------------------------------------------

chaos_schedule::chaos_schedule(const chaos_config& cfg, std::uint64_t stream)
    : cfg_(cfg), rng_(mix_seed(cfg.seed, stream)) {}

chaos_action chaos_schedule::next_action() {
    // One draw against cumulative thresholds: the documented first-hit-wins
    // order, and exactly one rng consumption per frame regardless of rates
    // (keeps schedules comparable across configs with the same seed).
    const double u = rng_.uniform();
    double edge = cfg_.drop_rate;
    if (u < edge) { return chaos_action::drop; }
    edge += cfg_.truncate_rate;
    if (u < edge) { return chaos_action::truncate; }
    edge += cfg_.garble_rate;
    if (u < edge) { return chaos_action::garble; }
    edge += cfg_.duplicate_rate;
    if (u < edge) { return chaos_action::duplicate; }
    edge += cfg_.delay_rate;
    if (u < edge) { return chaos_action::delay; }
    edge += cfg_.split_rate;
    if (u < edge) { return chaos_action::split; }
    return chaos_action::pass;
}

std::size_t chaos_schedule::split_point(std::size_t frame_size) {
    REDUCE_CHECK(frame_size >= 2, "cannot split a " << frame_size << "-byte frame");
    return 1 + static_cast<std::size_t>(rng_.uniform_index(frame_size - 1));
}

int chaos_schedule::delay_ms() {
    return static_cast<int>(rng_.uniform_int(cfg_.delay_min_ms, cfg_.delay_max_ms));
}

std::size_t chaos_schedule::garble(std::string& frame) {
    REDUCE_CHECK(frame.size() > 4, "cannot garble a " << frame.size() << "-byte frame");
    const std::size_t offset = 4 + static_cast<std::size_t>(rng_.uniform_index(frame.size() - 4));
    // XOR with a nonzero mask guarantees the byte actually changes.
    frame[offset] = static_cast<char>(static_cast<unsigned char>(frame[offset]) ^
                                      static_cast<unsigned char>(1 + rng_.uniform_index(255)));
    return offset;
}

std::size_t chaos_schedule::truncate_point(std::size_t frame_size) {
    REDUCE_CHECK(frame_size >= 2, "cannot truncate a " << frame_size << "-byte frame");
    return 1 + static_cast<std::size_t>(rng_.uniform_index(frame_size - 1));
}

// --- chaos_proxy ------------------------------------------------------------

struct chaos_proxy::pipe_pair {
    tcp_socket client;
    tcp_socket upstream;
    std::atomic<bool> killed{false};

    /// Severs both directions. shutdown() — not close() — because the pump
    /// threads still own the descriptors: it wakes their blocking reads with
    /// EOF and fails their writes, without racing descriptor reuse.
    void kill() {
        if (killed.exchange(true)) { return; }
        if (client.valid()) { ::shutdown(client.fd(), SHUT_RDWR); }
        if (upstream.valid()) { ::shutdown(upstream.fd(), SHUT_RDWR); }
    }
};

chaos_proxy::chaos_proxy(chaos_config cfg, std::string target_host,
                         std::function<int()> target_port)
    : cfg_(cfg), target_host_(std::move(target_host)), target_port_(std::move(target_port)) {}

chaos_proxy::~chaos_proxy() { stop(); }

void chaos_proxy::start() {
    REDUCE_CHECK(!listener_.has_value(), "chaos_proxy already started");
    listener_.emplace("127.0.0.1", 0);
    port_ = listener_->port();
    stop_.store(false);
    accept_thread_ = std::thread(&chaos_proxy::accept_loop, this);
    LOG_INFO << "chaos: proxy on port " << port_
             << (cfg_.seed == 0 ? " (pass-through)"
                                : " (seed " + std::to_string(cfg_.seed) + ")");
}

void chaos_proxy::stop() {
    stop_.store(true);
    if (accept_thread_.joinable()) { accept_thread_.join(); }
    std::vector<std::shared_ptr<pipe_pair>> pairs;
    std::vector<std::thread> pumps;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        pairs.swap(pairs_);
        pumps.swap(pumps_);
    }
    for (const auto& pair : pairs) { pair->kill(); }
    for (auto& t : pumps) {
        if (t.joinable()) { t.join(); }
    }
    listener_.reset();
}

chaos_proxy_stats chaos_proxy::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void chaos_proxy::count(chaos_action action) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.frames;
    switch (action) {
        case chaos_action::pass: break;
        case chaos_action::split: ++stats_.splits; break;
        case chaos_action::delay: ++stats_.delays; break;
        case chaos_action::duplicate: ++stats_.duplicates; break;
        case chaos_action::garble: ++stats_.garbles; break;
        case chaos_action::truncate: ++stats_.truncates; break;
        case chaos_action::drop: ++stats_.drops; break;
    }
}

void chaos_proxy::accept_loop() {
    while (!stop_.load()) {
        ::pollfd entry{};
        entry.fd = listener_->fd();
        entry.events = POLLIN;
        ::poll(&entry, 1, 100);
        if (stop_.load()) { break; }
        for (;;) {
            std::optional<tcp_socket> inbound = listener_->accept_one();
            if (!inbound.has_value()) { break; }
            const int target = target_port_ ? target_port_() : 0;
            if (target <= 0) {
                // Target gone (e.g. coordinator between incarnations):
                // refuse, the peer's backoff will retry.
                continue;
            }
            tcp_socket upstream;
            try {
                upstream = tcp_socket::connect_to(target_host_, target);
            } catch (const io_error&) {
                std::lock_guard<std::mutex> lock(mutex_);
                ++stats_.connect_failures;
                continue;
            }
            inbound->set_nonblocking(false);
            auto pair = std::make_shared<pipe_pair>();
            pair->client = std::move(*inbound);
            pair->upstream = std::move(upstream);
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.connections;
            const std::uint64_t conn = next_stream_++;
            pairs_.push_back(pair);
            pumps_.emplace_back(&chaos_proxy::pump, this, pair, false, conn * 2);
            pumps_.emplace_back(&chaos_proxy::pump, this, pair, true, conn * 2 + 1);
        }
    }
}

void chaos_proxy::pump(std::shared_ptr<pipe_pair> pair, bool downstream,
                       std::uint64_t stream) {
    tcp_socket& src = downstream ? pair->upstream : pair->client;
    tcp_socket& dst = downstream ? pair->client : pair->upstream;
    chaos_schedule schedule(cfg_, stream);
    std::string pending;  // bytes received, not yet a complete frame
    char chunk[1 << 16];
    try {
        for (;;) {
            const tcp_socket::recv_result got = src.recv_some(chunk, sizeof chunk);
            if (got.closed) { break; }
            if (got.bytes == 0) { continue; }
            pending.append(chunk, got.bytes);
            while (pending.size() >= 4) {
                const auto byte = [&](std::size_t i) {
                    return static_cast<std::uint32_t>(static_cast<unsigned char>(pending[i]));
                };
                const std::uint32_t length =
                    (byte(0) << 24) | (byte(1) << 16) | (byte(2) << 8) | byte(3);
                if (length == 0 || length > max_frame_payload) {
                    // Desynced stream (endpoints never send this): stop
                    // interpreting, relay raw — the receiver will reject it.
                    dst.send_all(pending);
                    pending.clear();
                    break;
                }
                if (pending.size() < 4 + static_cast<std::size_t>(length)) { break; }
                std::string frame = pending.substr(0, 4 + length);
                pending.erase(0, 4 + length);

                const chaos_action action =
                    cfg_.seed == 0 ? chaos_action::pass : schedule.next_action();
                count(action);
                switch (action) {
                    case chaos_action::pass:
                        dst.send_all(frame);
                        break;
                    case chaos_action::split: {
                        const std::size_t at = schedule.split_point(frame.size());
                        dst.send_all(frame.substr(0, at));
                        // A real scheduling gap, so the halves arrive as
                        // separate reads instead of coalescing in the kernel.
                        std::this_thread::sleep_for(std::chrono::milliseconds(1));
                        dst.send_all(frame.substr(at));
                        break;
                    }
                    case chaos_action::delay:
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(schedule.delay_ms()));
                        dst.send_all(frame);
                        break;
                    case chaos_action::duplicate:
                        dst.send_all(frame);
                        dst.send_all(frame);
                        break;
                    case chaos_action::garble:
                        schedule.garble(frame);
                        dst.send_all(frame);
                        break;
                    case chaos_action::truncate:
                        dst.send_all(frame.substr(0, schedule.truncate_point(frame.size())));
                        pair->kill();
                        return;
                    case chaos_action::drop:
                        pair->kill();
                        return;
                }
            }
        }
        // Source EOF: flush whatever partial frame is buffered, then pass
        // the half-close along so the destination sees the same EOF.
        if (!pending.empty()) { dst.send_all(pending); }
        if (dst.valid()) { ::shutdown(dst.fd(), SHUT_WR); }
    } catch (const io_error&) {
        // Either side vanished mid-pump — sever the pair and bow out; the
        // endpoints' own fault handling takes over.
        pair->kill();
    }
}

}  // namespace reduce::dist
