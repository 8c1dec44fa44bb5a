#include "core/genome.hpp"

#include <gtest/gtest.h>

#include "core/genome_table.hpp"

#include <set>

namespace nautilus {
namespace {

ParameterSpace small_space()
{
    ParameterSpace space;
    space.add("a", ParamDomain::int_range(0, 3));      // 4
    space.add("b", ParamDomain::pow2(1, 3));           // 3
    space.add("c", ParamDomain::boolean());            // 2
    space.add("d", ParamDomain::categorical({"x", "y", "z"}));  // 3
    return space;
}

TEST(Genome, ZerosMatchesSpace)
{
    const auto space = small_space();
    const Genome g = Genome::zeros(space);
    EXPECT_EQ(g.size(), 4u);
    for (std::size_t i = 0; i < g.size(); ++i) EXPECT_EQ(g.gene(i), 0u);
    EXPECT_TRUE(g.compatible_with(space));
}

TEST(Genome, RandomStaysInBounds)
{
    const auto space = small_space();
    Rng rng{1};
    for (int i = 0; i < 200; ++i) {
        const Genome g = Genome::random(space, rng);
        ASSERT_TRUE(g.compatible_with(space));
    }
}

TEST(Genome, RandomCoversSpace)
{
    const auto space = small_space();
    Rng rng{2};
    std::set<std::size_t> ranks;
    for (int i = 0; i < 2000; ++i) ranks.insert(Genome::random(space, rng).to_rank(space));
    // 72 possible configurations; 2000 draws should see almost all.
    EXPECT_GT(ranks.size(), 68u);
}

TEST(Genome, RankRoundTrip)
{
    const auto space = small_space();
    const std::size_t total = *space.exact_cardinality();
    EXPECT_EQ(total, 72u);
    for (std::size_t rank = 0; rank < total; ++rank) {
        const Genome g = Genome::from_rank(space, rank);
        ASSERT_TRUE(g.compatible_with(space));
        EXPECT_EQ(g.to_rank(space), rank);
    }
}

TEST(Genome, FromRankOutOfRange)
{
    const auto space = small_space();
    EXPECT_THROW(Genome::from_rank(space, 72), std::out_of_range);
}

TEST(Genome, RanksAreDistinct)
{
    const auto space = small_space();
    std::set<std::uint64_t> keys;
    for (std::size_t rank = 0; rank < 72; ++rank) {
        const Genome g = Genome::from_rank(space, rank);
        keys.insert(g.key());
    }
    EXPECT_EQ(keys.size(), 72u);  // key collisions would break caching
}

TEST(Genome, GeneAccessValidation)
{
    Genome g{{1, 2}};
    EXPECT_EQ(g.gene(1), 2u);
    EXPECT_THROW(g.gene(2), std::out_of_range);
    EXPECT_THROW(g.set_gene(2, 0), std::out_of_range);
    g.set_gene(0, 5);
    EXPECT_EQ(g.gene(0), 5u);
}

TEST(Genome, NumericAndNameDecoding)
{
    const auto space = small_space();
    Genome g{{2, 1, 1, 2}};
    EXPECT_DOUBLE_EQ(g.numeric_value(space, 0), 2.0);
    EXPECT_DOUBLE_EQ(g.numeric_value(space, 1), 4.0);  // 2^2
    EXPECT_EQ(g.value_name(space, 2), "true");
    EXPECT_EQ(g.value_name(space, 3), "z");
}

TEST(Genome, CompatibilityChecks)
{
    const auto space = small_space();
    EXPECT_FALSE((Genome{{0, 0, 0}}.compatible_with(space)));        // too short
    EXPECT_FALSE((Genome{{0, 0, 0, 0, 0}}.compatible_with(space)));  // too long
    EXPECT_FALSE((Genome{{4, 0, 0, 0}}.compatible_with(space)));     // out of domain
    EXPECT_TRUE((Genome{{3, 2, 1, 2}}.compatible_with(space)));
}

TEST(Genome, ToRankRejectsIncompatible)
{
    const auto space = small_space();
    EXPECT_THROW((Genome{{9, 9, 9, 9}}.to_rank(space)), std::invalid_argument);
}

TEST(Genome, KeyIsOrderSensitive)
{
    EXPECT_NE((Genome{{1, 2}}.key()), (Genome{{2, 1}}.key()));
    EXPECT_NE((Genome{{1}}.key()), (Genome{{1, 0}}.key()));
}

TEST(Genome, EqualityAndHashAgree)
{
    Genome a{{1, 2, 3}};
    Genome b{{1, 2, 3}};
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.key(), b.key());
    EXPECT_EQ(GenomeTable::hash(a.genes()), GenomeTable::hash(b.genes()));
}

TEST(Genome, ToStringListsAllParameters)
{
    const auto space = small_space();
    const Genome g{{1, 0, 1, 0}};
    EXPECT_EQ(g.to_string(space), "a=1 b=2 c=true d=x");
    EXPECT_EQ((Genome{{0}}.to_string(space)), "<incompatible genome>");
}

class GenomeRankSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GenomeRankSweep, AdjacentRanksDifferInOneTrailingDigitChain)
{
    const auto space = small_space();
    const std::size_t rank = GetParam();
    const Genome a = Genome::from_rank(space, rank);
    const Genome b = Genome::from_rank(space, rank + 1);
    EXPECT_NE(a, b);
    // The last parameter is the fastest digit.
    if (a.gene(3) + 1 < 3) {
        EXPECT_EQ(b.gene(3), a.gene(3) + 1);
    }
}

INSTANTIATE_TEST_SUITE_P(Ranks, GenomeRankSweep, ::testing::Values(0u, 1u, 7u, 35u, 70u));

}  // namespace
}  // namespace nautilus
