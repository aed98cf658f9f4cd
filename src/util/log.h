// Minimal leveled logger. Bench/example binaries log progress to stderr so
// stdout stays clean CSV for piping into plot scripts.
#pragma once

#include <functional>
#include <sstream>
#include <string>

namespace reduce {

/// Log severities in increasing order of importance.
enum class log_level {
    debug = 0,
    info = 1,
    warn = 2,
    error = 3,
    off = 4,
};

/// Sets the global threshold; messages below it are dropped.
void set_log_level(log_level level);

/// Emits one line to stderr if `level` passes the threshold.
void log_message(log_level level, const std::string& message);

/// Capture hook: while a sink is installed, messages that pass the
/// threshold are delivered to it *instead of* stderr. Pass nullptr to
/// restore stderr logging. Install/remove and delivery are serialized under
/// one lock, so a sink may be used from multi-threaded code under test.
using log_sink = std::function<void(log_level, const std::string&)>;
void set_log_sink(log_sink sink);

namespace detail {

class log_line {
public:
    explicit log_line(log_level level) : level_(level) {}
    log_line(const log_line&) = delete;
    log_line& operator=(const log_line&) = delete;
    ~log_line() { log_message(level_, stream_.str()); }

    template <typename T>
    log_line& operator<<(const T& value) {
        stream_ << value;
        return *this;
    }

private:
    log_level level_;
    std::ostringstream stream_;
};

}  // namespace detail

/// Stream-style logging: LOG_INFO << "trained chip " << id;
#define LOG_DEBUG ::reduce::detail::log_line(::reduce::log_level::debug)
#define LOG_INFO ::reduce::detail::log_line(::reduce::log_level::info)
#define LOG_WARN ::reduce::detail::log_line(::reduce::log_level::warn)
#define LOG_ERROR ::reduce::detail::log_line(::reduce::log_level::error)

}  // namespace reduce
