#include "util/rng.h"

#include <cmath>
#include <numbers>

#include "util/error.h"

namespace reduce {

std::uint64_t splitmix64(std::uint64_t& state) {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t mix_seed(std::uint64_t base, std::uint64_t stream) {
    std::uint64_t s = base;
    (void)splitmix64(s);
    s ^= 0x632be59bd9b4e019ULL + (stream << 1);
    std::uint64_t mixed = splitmix64(s);
    // One extra round so adjacent streams differ in every bit position.
    return splitmix64(mixed);
}

std::uint64_t mix_seed(std::uint64_t base, std::uint64_t stream_a, std::uint64_t stream_b) {
    return mix_seed(mix_seed(base, stream_a), stream_b);
}

namespace {

inline std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
}

}  // namespace

rng::rng(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) { word = splitmix64(sm); }
}

std::uint64_t rng::next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

double rng::uniform() {
    // 53 high bits → double in [0, 1) with full mantissa resolution.
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double rng::uniform(double lo, double hi) {
    REDUCE_CHECK(lo <= hi, "uniform range inverted: [" << lo << ", " << hi << ")");
    return lo + (hi - lo) * uniform();
}

std::uint64_t rng::uniform_index(std::uint64_t n) {
    REDUCE_CHECK(n > 0, "uniform_index requires n > 0");
    // Bitmask rejection: unbiased and stream-stable.
    std::uint64_t mask = n - 1;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    mask |= mask >> 32;
    while (true) {
        const std::uint64_t candidate = next_u64() & mask;
        if (candidate < n) { return candidate; }
    }
}

std::int64_t rng::uniform_int(std::int64_t lo, std::int64_t hi) {
    REDUCE_CHECK(lo <= hi, "uniform_int range inverted: [" << lo << ", " << hi << "]");
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(uniform_index(span));
}

double rng::normal() {
    if (has_cached_normal_) {
        has_cached_normal_ = false;
        return cached_normal_;
    }
    // Box–Muller; u1 is kept away from 0 so log() is finite.
    double u1 = 0.0;
    do { u1 = uniform(); } while (u1 <= 1e-300);
    const double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * std::numbers::pi * u2;
    cached_normal_ = radius * std::sin(angle);
    has_cached_normal_ = true;
    return radius * std::cos(angle);
}

double rng::normal(double mean, double stddev) {
    REDUCE_CHECK(stddev >= 0.0, "normal stddev must be non-negative, got " << stddev);
    return mean + stddev * normal();
}

bool rng::bernoulli(double p) {
    REDUCE_CHECK(p >= 0.0 && p <= 1.0, "bernoulli p must be in [0,1], got " << p);
    return uniform() < p;
}

std::vector<std::size_t> rng::permutation(std::size_t n) {
    std::vector<std::size_t> result(n);
    for (std::size_t i = 0; i < n; ++i) { result[i] = i; }
    shuffle(result);
    return result;
}

std::vector<std::size_t> rng::sample_without_replacement(std::size_t n, std::size_t k) {
    REDUCE_CHECK(k <= n, "cannot sample " << k << " items from " << n);
    // Floyd's algorithm keeps this O(k) in expectation for sparse draws,
    // which matters when sampling faulty PEs from a 256x256 array.
    if (k == n) { return permutation(n); }
    std::vector<std::size_t> chosen;
    chosen.reserve(k);
    std::vector<bool> taken(n, false);
    for (std::size_t j = n - k; j < n; ++j) {
        const std::size_t t = static_cast<std::size_t>(uniform_index(j + 1));
        if (!taken[t]) {
            taken[t] = true;
            chosen.push_back(t);
        } else {
            taken[j] = true;
            chosen.push_back(j);
        }
    }
    shuffle(chosen);
    return chosen;
}

}  // namespace reduce
