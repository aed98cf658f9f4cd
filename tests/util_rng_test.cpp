// Tests for the deterministic RNG: reproducibility, distribution sanity,
// and the seed-mixing helpers that give every chip/repeat its own stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "util/error.h"
#include "util/rng.h"

namespace reduce {
namespace {

TEST(SplitMix64, AdvancesStateAndMixes) {
    std::uint64_t s1 = 1;
    std::uint64_t s2 = 1;
    const std::uint64_t a = splitmix64(s1);
    const std::uint64_t b = splitmix64(s2);
    EXPECT_EQ(a, b);  // same state, same output
    const std::uint64_t c = splitmix64(s1);
    EXPECT_NE(a, c);  // state advanced
}

TEST(MixSeed, DistinctStreamsDiffer) {
    std::set<std::uint64_t> seeds;
    for (std::uint64_t stream = 0; stream < 1000; ++stream) {
        seeds.insert(mix_seed(42, stream));
    }
    EXPECT_EQ(seeds.size(), 1000u);
}

TEST(MixSeed, DistinctBasesDiffer) {
    EXPECT_NE(mix_seed(1, 0), mix_seed(2, 0));
    EXPECT_NE(mix_seed(0, 0), mix_seed(0, 1));
}

TEST(MixSeed, ThreeArgIsNestedTwoArg) {
    EXPECT_EQ(mix_seed(42, 3, 7), mix_seed(mix_seed(42, 3), 7));
}

TEST(MixSeed, ThreeArgStreamPairsDoNotAlias) {
    // The 2D family exists so (a, b) never collides with (b, a) or with any
    // flattened 1D encoding — the failure mode of seed schemes like
    // base + a * K + b when a dimension exceeds K.
    std::set<std::uint64_t> seeds;
    for (std::uint64_t a = 0; a < 40; ++a) {
        for (std::uint64_t b = 0; b < 40; ++b) { seeds.insert(mix_seed(7, a, b)); }
    }
    EXPECT_EQ(seeds.size(), 1600u);
    EXPECT_NE(mix_seed(7, 1, 2), mix_seed(7, 2, 1));
}

TEST(Rng, SameSeedSameStream) {
    rng a(123);
    rng b(123);
    for (int i = 0; i < 100; ++i) { EXPECT_EQ(a.next_u64(), b.next_u64()); }
}

TEST(Rng, DifferentSeedsDifferentStreams) {
    rng a(123);
    rng b(124);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next_u64() == b.next_u64()) { ++equal; }
    }
    EXPECT_EQ(equal, 0);
}

TEST(Rng, UniformInUnitInterval) {
    rng gen(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = gen.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf) {
    rng gen(7);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) { sum += gen.uniform(); }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
    rng gen(9);
    for (int i = 0; i < 1000; ++i) {
        const double u = gen.uniform(-3.0, 5.5);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.5);
    }
}

TEST(Rng, UniformRangeRejectsInverted) {
    rng gen(9);
    EXPECT_THROW(gen.uniform(2.0, 1.0), error);
}

TEST(Rng, UniformIndexCoversRange) {
    rng gen(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) { seen.insert(gen.uniform_index(7)); }
    EXPECT_EQ(seen.size(), 7u);
    EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, UniformIndexOneIsAlwaysZero) {
    rng gen(11);
    for (int i = 0; i < 50; ++i) { EXPECT_EQ(gen.uniform_index(1), 0u); }
}

TEST(Rng, UniformIndexRejectsZero) {
    rng gen(11);
    EXPECT_THROW(gen.uniform_index(0), error);
}

TEST(Rng, UniformIntInclusiveBounds) {
    rng gen(13);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const std::int64_t v = gen.uniform_int(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo |= (v == -2);
        saw_hi |= (v == 2);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsMatch) {
    rng gen(17);
    const int n = 100000;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double x = gen.normal();
        sum += x;
        sum_sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, NormalScaled) {
    rng gen(19);
    const int n = 50000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) { sum += gen.normal(10.0, 2.0); }
    EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, NormalRejectsNegativeStddev) {
    rng gen(19);
    EXPECT_THROW(gen.normal(0.0, -1.0), error);
}

TEST(Rng, BernoulliFrequency) {
    rng gen(23);
    const int n = 100000;
    int hits = 0;
    for (int i = 0; i < n; ++i) { hits += gen.bernoulli(0.3) ? 1 : 0; }
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliExtremes) {
    rng gen(23);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(gen.bernoulli(0.0));
        EXPECT_TRUE(gen.bernoulli(1.0));
    }
    EXPECT_THROW(gen.bernoulli(1.5), error);
    EXPECT_THROW(gen.bernoulli(-0.1), error);
}

TEST(Rng, PermutationIsBijection) {
    rng gen(29);
    const auto perm = gen.permutation(100);
    std::set<std::size_t> seen(perm.begin(), perm.end());
    EXPECT_EQ(seen.size(), 100u);
    EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Rng, PermutationOfEmptyAndSingleton) {
    rng gen(29);
    EXPECT_TRUE(gen.permutation(0).empty());
    const auto one = gen.permutation(1);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], 0u);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
    rng gen(31);
    const auto picks = gen.sample_without_replacement(1000, 50);
    EXPECT_EQ(picks.size(), 50u);
    std::set<std::size_t> seen(picks.begin(), picks.end());
    EXPECT_EQ(seen.size(), 50u);
    for (const std::size_t p : picks) { EXPECT_LT(p, 1000u); }
}

TEST(Rng, SampleWithoutReplacementFull) {
    rng gen(31);
    const auto picks = gen.sample_without_replacement(20, 20);
    std::set<std::size_t> seen(picks.begin(), picks.end());
    EXPECT_EQ(seen.size(), 20u);
}

TEST(Rng, SampleWithoutReplacementRejectsOverdraw) {
    rng gen(31);
    EXPECT_THROW(gen.sample_without_replacement(5, 6), error);
}

TEST(Rng, SampleWithoutReplacementUniformCoverage) {
    // Every index should be picked with roughly equal frequency.
    rng gen(37);
    std::vector<int> counts(10, 0);
    const int trials = 20000;
    for (int t = 0; t < trials; ++t) {
        for (const std::size_t p : gen.sample_without_replacement(10, 3)) { ++counts[p]; }
    }
    for (const int c : counts) {
        EXPECT_NEAR(static_cast<double>(c) / trials, 0.3, 0.02);
    }
}

TEST(Rng, ShuffleKeepsMultiset) {
    rng gen(41);
    std::vector<int> values = {1, 2, 2, 3, 5, 8, 13};
    std::vector<int> copy = values;
    gen.shuffle(values);
    std::sort(values.begin(), values.end());
    std::sort(copy.begin(), copy.end());
    EXPECT_EQ(values, copy);
}

// Property sweep: uniform_index stays unbiased across a range of moduli.
class UniformIndexBias : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UniformIndexBias, FrequenciesBalanced) {
    const std::uint64_t n = GetParam();
    rng gen(1000 + n);
    std::vector<int> counts(n, 0);
    const int trials = 30000;
    for (int t = 0; t < trials; ++t) { ++counts[gen.uniform_index(n)]; }
    const double expected = static_cast<double>(trials) / static_cast<double>(n);
    for (const int c : counts) {
        EXPECT_NEAR(c, expected, 5.0 * std::sqrt(expected))
            << "modulus " << n;
    }
}

INSTANTIATE_TEST_SUITE_P(Moduli, UniformIndexBias,
                         ::testing::Values(2, 3, 5, 7, 16, 33, 100));

}  // namespace
}  // namespace reduce
