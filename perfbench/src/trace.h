// Measurement helpers of the repo benchmark: in-memory spans with self
// time, the sample-count-guarded percentile, and the output digest.
//
// Spans are recorded only by the benchmark's own files, around calls into
// the library's public functions; nothing here reaches inside src/.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// One timed call. Times are milliseconds since the recorder's origin;
/// `parent` indexes the recorder's span list (-1 for a root) and `run_id`
/// groups the spans of one pipeline repetition.
struct span {
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    std::int64_t parent = -1;
    std::uint64_t run_id = 0;

    double duration_ms() const { return end_ms - start_ms; }
};

/// Thread-safe span store. Spans stay in memory until the benchmark writes
/// them out at exit, so recording costs one clock read and one locked push.
class span_recorder {
public:
    span_recorder() : origin_(clock::now()) {}

    /// Opens a span and returns its index (the `parent` of nested spans).
    std::int64_t begin(std::string name, std::int64_t parent, std::uint64_t run_id) {
        const double now = now_ms();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(span{std::move(name), now, now, parent, run_id});
        return static_cast<std::int64_t>(spans_.size()) - 1;
    }

    void end(std::int64_t index) {
        const double now = now_ms();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<std::size_t>(index)].end_ms = now;
    }

    /// Copy of every span recorded so far (call once the workers joined).
    std::vector<span> spans() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_;
    }

private:
    using clock = std::chrono::steady_clock;
    double now_ms() const {
        return std::chrono::duration<double, std::milli>(clock::now() - origin_).count();
    }

    clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<span> spans_;
};

/// RAII span: opens on construction, closes on destruction (also when the
/// traced call throws).
class scoped_span {
public:
    scoped_span(span_recorder& rec, std::string name, std::int64_t parent, std::uint64_t run_id)
        : rec_(rec), index_(rec.begin(std::move(name), parent, run_id)) {}
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;
    ~scoped_span() { rec_.end(index_); }

    std::int64_t index() const { return index_; }

private:
    span_recorder& rec_;
    std::int64_t index_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap (parallel workers),
/// so their intervals are clipped to the parent and merged before summing.
inline std::vector<double> self_times_ms(const std::vector<span>& spans) {
    std::vector<std::vector<std::pair<double, double>>> children(spans.size());
    for (const span& s : spans) {
        if (s.parent < 0) { continue; }
        const span& p = spans[static_cast<std::size_t>(s.parent)];
        const double lo = std::max(s.start_ms, p.start_ms);
        const double hi = std::min(s.end_ms, p.end_ms);
        if (hi > lo) { children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi); }
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        std::vector<std::pair<double, double>>& iv = children[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double cur_lo = 0.0;
        double cur_hi = -1.0;
        bool open = false;
        for (const auto& [lo, hi] : iv) {
            if (open && lo <= cur_hi) {
                cur_hi = std::max(cur_hi, hi);
                continue;
            }
            if (open) { covered += cur_hi - cur_lo; }
            cur_lo = lo;
            cur_hi = hi;
            open = true;
        }
        if (open) { covered += cur_hi - cur_lo; }
        self[i] = spans[i].duration_ms() - covered;
    }
    return self;
}

/// Nearest-rank percentile `p` (0 < p < 100) of `samples`, reported only
/// when at least `min_beyond` samples rank above it — a tail statistic
/// read off fewer samples is noise, so the caller gets nothing instead.
inline std::optional<double> guarded_percentile(std::vector<double> samples, double p,
                                                std::size_t min_beyond = 10) {
    const std::size_t n = samples.size();
    if (n == 0 || p <= 0.0 || p >= 100.0) { return std::nullopt; }
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    if (n - rank < min_beyond) { return std::nullopt; }
    std::sort(samples.begin(), samples.end());
    return samples[rank - 1];
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
inline double median(std::vector<double> samples) {
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// 64-bit FNV-1a, chained: equal inputs give equal digests on every run.
inline std::uint64_t fnv1a64(std::string_view bytes,
                             std::uint64_t hash = 0xcbf29ce484222325ull) {
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

inline std::string hex64(std::uint64_t value) {
    static const char* digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[value & 0xf];
        value >>= 4;
    }
    return out;
}

}  // namespace perfbench
