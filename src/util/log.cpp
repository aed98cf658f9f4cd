#include "util/log.h"

#include <atomic>
#include <iostream>
#include <mutex>

namespace reduce {

namespace {

std::atomic<log_level> g_level{log_level::info};
std::mutex g_sink_mutex;
log_sink g_sink;  // guarded by g_sink_mutex

const char* level_name(log_level level) {
    switch (level) {
        case log_level::debug: return "DEBUG";
        case log_level::info: return "INFO";
        case log_level::warn: return "WARN";
        case log_level::error: return "ERROR";
        case log_level::off: return "OFF";
    }
    return "?";
}

}  // namespace

void set_log_level(log_level level) { g_level.store(level); }

void set_log_sink(log_sink sink) {
    std::lock_guard<std::mutex> lock(g_sink_mutex);
    g_sink = std::move(sink);
}

void log_message(log_level level, const std::string& message) {
    if (static_cast<int>(level) < static_cast<int>(g_level.load())) { return; }
    // Copy the sink out of the lock before invoking it: a sink that itself
    // logs (or swaps the sink) must not deadlock on the non-recursive mutex.
    log_sink sink;
    {
        std::lock_guard<std::mutex> lock(g_sink_mutex);
        sink = g_sink;
    }
    if (sink) {
        sink(level, message);
        return;
    }
    std::cerr << '[' << level_name(level) << "] " << message << '\n';
}

}  // namespace reduce
