#include "core/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

namespace nautilus {
namespace {

TEST(Rng, SameSeedSameSequence)
{
    Rng a{123};
    Rng b{123};
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDifferentSequences)
{
    Rng a{1};
    Rng b{2};
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next_u64() == b.next_u64()) ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, ZeroSeedIsValid)
{
    Rng r{0};
    std::set<std::uint64_t> values;
    for (int i = 0; i < 16; ++i) values.insert(r.next_u64());
    EXPECT_GT(values.size(), 10u);  // not stuck
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r{7};
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng r{11};
    double sum = 0.0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) sum += r.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng r{13};
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng r{17};
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.uniform_int(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
        saw_lo |= v == 3;
        saw_hi |= v == 7;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSinglePoint)
{
    Rng r{19};
    for (int i = 0; i < 10; ++i) EXPECT_EQ(r.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntRejectsInvertedBounds)
{
    Rng r{23};
    EXPECT_THROW(r.uniform_int(2, 1), std::invalid_argument);
}

// Property test over extreme bounds where the old `hi - lo` span computation
// overflowed int64 (undefined behavior).  Runs under UBSan in CI; every draw
// must also land inside the inclusive range.
TEST(Rng, UniformIntExtremeBoundsStayInRange)
{
    constexpr std::int64_t i64min = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t i64max = std::numeric_limits<std::int64_t>::max();
    Rng r{101};
    for (int i = 0; i < 2000; ++i) {
        // hi - lo overflows signed for all of these.
        EXPECT_GE(r.uniform_int(-2, i64max), -2);
        EXPECT_LE(r.uniform_int(i64min, 2), 2);
        EXPECT_GE(r.uniform_int(i64min / 2 - 1, i64max), i64min / 2 - 1);
        // Full range: the unsigned span wraps to 0 (2^64 values).
        (void)r.uniform_int(i64min, i64max);
        // Two-value ranges hugging each end.
        const auto top = r.uniform_int(i64max - 1, i64max);
        EXPECT_GE(top, i64max - 1);
        const auto bottom = r.uniform_int(i64min, i64min + 1);
        EXPECT_LE(bottom, i64min + 1);
        EXPECT_EQ(r.uniform_int(i64max, i64max), i64max);
        EXPECT_EQ(r.uniform_int(i64min, i64min), i64min);
    }
}

TEST(Rng, UniformIntExtremeTwoValueRangesReachBothEndpoints)
{
    constexpr std::int64_t i64min = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t i64max = std::numeric_limits<std::int64_t>::max();
    Rng r{103};
    bool top_lo = false, top_hi = false, bottom_lo = false, bottom_hi = false;
    for (int i = 0; i < 500; ++i) {
        const auto top = r.uniform_int(i64max - 1, i64max);
        top_lo |= top == i64max - 1;
        top_hi |= top == i64max;
        const auto bottom = r.uniform_int(i64min, i64min + 1);
        bottom_lo |= bottom == i64min;
        bottom_hi |= bottom == i64min + 1;
    }
    EXPECT_TRUE(top_lo);
    EXPECT_TRUE(top_hi);
    EXPECT_TRUE(bottom_lo);
    EXPECT_TRUE(bottom_hi);
}

TEST(Rng, UniformIntApproximatelyUniform)
{
    Rng r{29};
    std::vector<int> counts(6, 0);
    constexpr int n = 60000;
    for (int i = 0; i < n; ++i) ++counts[static_cast<std::size_t>(r.uniform_int(0, 5))];
    for (int c : counts) EXPECT_NEAR(c, n / 6.0, n / 6.0 * 0.1);
}

TEST(Rng, IndexBounds)
{
    Rng r{31};
    for (int i = 0; i < 1000; ++i) EXPECT_LT(r.index(17), 17u);
    EXPECT_THROW(r.index(0), std::invalid_argument);
}

TEST(Rng, BernoulliEdgeCases)
{
    Rng r{37};
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(r.bernoulli(0.0));
        EXPECT_TRUE(r.bernoulli(1.0));
        EXPECT_FALSE(r.bernoulli(-1.0));
        EXPECT_TRUE(r.bernoulli(2.0));
    }
}

TEST(Rng, BernoulliFrequency)
{
    Rng r{41};
    int hits = 0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3);
    EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.02);
}

TEST(Rng, NormalMoments)
{
    Rng r{43};
    double sum = 0.0;
    double sq = 0.0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double x = r.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sq / n, 1.0, 0.08);
}

TEST(Rng, NormalShifted)
{
    Rng r{47};
    double sum = 0.0;
    constexpr int n = 10000;
    for (int i = 0; i < n; ++i) sum += r.normal(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.15);
}

TEST(Rng, WeightedIndexFollowsWeights)
{
    Rng r{53};
    const std::vector<double> weights{1.0, 0.0, 3.0};
    std::vector<int> counts(3, 0);
    constexpr int n = 40000;
    for (int i = 0; i < n; ++i) ++counts[r.weighted_index(weights)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.25, 0.02);
    EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.75, 0.02);
}

TEST(Rng, WeightedIndexRejectsBadWeights)
{
    Rng r{59};
    const std::vector<double> negative{1.0, -0.5};
    const std::vector<double> zeros{0.0, 0.0};
    EXPECT_THROW(r.weighted_index(negative), std::invalid_argument);
    EXPECT_THROW(r.weighted_index(zeros), std::invalid_argument);
}

// The cached-total overload draws exactly what the summing one draws, from
// the same generator state, when the total is summed front to back.
TEST(Rng, WeightedIndexWithTotalMatchesSummingOverload)
{
    Rng weights_rng{61};
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<double> weights(1 + weights_rng.index(12));
        for (double& w : weights) w = weights_rng.bernoulli(0.2) ? 0.0 : weights_rng.uniform();
        weights[weights_rng.index(weights.size())] = 0.5;  // at least one positive
        double total = 0.0;
        for (const double w : weights) total += w;
        Rng a{static_cast<std::uint64_t>(trial)};
        Rng b{static_cast<std::uint64_t>(trial)};
        for (int draw = 0; draw < 50; ++draw)
            ASSERT_EQ(a.weighted_index(weights), b.weighted_index(weights, total));
        EXPECT_EQ(a.state(), b.state());
    }
    Rng r{67};
    const std::vector<double> zeros{0.0, 0.0};
    EXPECT_THROW(r.weighted_index(zeros, 0.0), std::invalid_argument);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a{61};
    Rng b = a.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next_u64() == b.next_u64()) ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng r{67};
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    r.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(Hashing, Mix64IsDeterministicAndSpreads)
{
    EXPECT_EQ(mix64(42), mix64(42));
    EXPECT_NE(mix64(42), mix64(43));
    EXPECT_NE(mix64(0), 0u);
}

TEST(Hashing, HashCombineOrderMatters)
{
    const auto a = hash_combine(hash_combine(1, 2), 3);
    const auto b = hash_combine(hash_combine(1, 3), 2);
    EXPECT_NE(a, b);
}

TEST(Hashing, SplitMix64AdvancesState)
{
    std::uint64_t s = 5;
    const auto v1 = splitmix64(s);
    const auto v2 = splitmix64(s);
    EXPECT_NE(v1, v2);
}

class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformStaysInRangeAndVaries)
{
    Rng r{GetParam()};
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 256; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        seen.insert(r.next_u64());
    }
    EXPECT_GT(seen.size(), 250u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ull, 1ull, 2ull, 42ull, 1337ull,
                                           0xffffffffffffffffull, 0x8000000000000000ull));

}  // namespace
}  // namespace nautilus
