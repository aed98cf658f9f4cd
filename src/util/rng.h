// Deterministic pseudo-random number generation.
//
// All stochastic procedures in the project (weight init, data synthesis,
// fault-map sampling, shuffling) draw from reduce::rng so that every
// experiment is reproducible from a single integer seed. The generator is
// xoshiro256** seeded via splitmix64, which is fast, high quality, and —
// unlike std::mt19937 + std::distributions — produces identical streams on
// every platform and standard library.
#pragma once

#include <cstdint>
#include <vector>

namespace reduce {

/// One step of the splitmix64 generator; used for seeding and hash mixing.
std::uint64_t splitmix64(std::uint64_t& state);

/// Mixes two integers into a well-distributed 64-bit seed.
/// Used to derive per-chip / per-repeat seeds from a base seed.
std::uint64_t mix_seed(std::uint64_t base, std::uint64_t stream);

/// Mixes three integers into a seed: mix_seed(mix_seed(base, stream_a),
/// stream_b). Used for two-dimensional stream families — e.g. the
/// (rate_index, repeat) cells of a resilience sweep — where flattening the
/// pair into one stream id would risk collisions between grid shapes.
std::uint64_t mix_seed(std::uint64_t base, std::uint64_t stream_a, std::uint64_t stream_b);

/// xoshiro256** PRNG with convenience distributions.
///
/// Distributions are implemented in-house (not std::) so streams are
/// bit-reproducible across toolchains.
class rng {
public:
    /// Seeds the generator; two rngs with equal seeds produce equal streams.
    explicit rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /// Next raw 64-bit value.
    std::uint64_t next_u64();

    /// Uniform double in [0, 1).
    double uniform();

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi);

    /// Uniform integer in [0, n). Requires n > 0.
    std::uint64_t uniform_index(std::uint64_t n);

    /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

    /// Standard normal via Box–Muller (cached second value).
    double normal();

    /// Normal with given mean and standard deviation.
    double normal(double mean, double stddev);

    /// Bernoulli trial with success probability p in [0, 1].
    bool bernoulli(double p);

    /// Fisher–Yates shuffle of a vector in place.
    template <typename T>
    void shuffle(std::vector<T>& values) {
        if (values.size() < 2) { return; }
        for (std::size_t i = values.size() - 1; i > 0; --i) {
            const std::size_t j = static_cast<std::size_t>(uniform_index(i + 1));
            std::swap(values[i], values[j]);
        }
    }

    /// Returns a random permutation of [0, n).
    std::vector<std::size_t> permutation(std::size_t n);

    /// Samples k distinct indices from [0, n) without replacement.
    /// Requires k <= n. Result is in random order.
    std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t k);

private:
    std::uint64_t state_[4];
    double cached_normal_ = 0.0;
    bool has_cached_normal_ = false;
};

}  // namespace reduce
