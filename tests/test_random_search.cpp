#include "core/random_search.hpp"

#include <gtest/gtest.h>

#include <bit>

#include "core/eval_pipeline.hpp"
#include "core/genome.hpp"
#include "noc/router_generator.hpp"

namespace nautilus {
namespace {

ParameterSpace rs_space()
{
    ParameterSpace space;
    space.add("a", ParamDomain::int_range(0, 9));
    space.add("b", ParamDomain::int_range(0, 9));
    return space;
}

Evaluation sum_eval(const Genome& g)
{
    return {true, static_cast<double>(g.gene(0) + g.gene(1))};
}

TEST(RandomSearch, ConstructionValidation)
{
    const auto space = rs_space();
    const ParameterSpace empty;
    EXPECT_THROW(RandomSearch(empty, RandomSearchConfig{}, Direction::maximize, sum_eval),
                 std::invalid_argument);
    EXPECT_THROW(RandomSearch(space, RandomSearchConfig{}, Direction::maximize, EvalFn{}),
                 std::invalid_argument);
    RandomSearchConfig zero;
    zero.max_distinct_evals = 0;
    EXPECT_THROW(RandomSearch(space, zero, Direction::maximize, sum_eval),
                 std::invalid_argument);
}

TEST(RandomSearch, RespectsDistinctBudget)
{
    const auto space = rs_space();
    RandomSearchConfig cfg;
    cfg.max_distinct_evals = 25;
    const RandomSearch rs{space, cfg, Direction::maximize, sum_eval};
    const Curve c = rs.run(1);
    EXPECT_LE(c.final_evals(), 25.0);
}

TEST(RandomSearch, CurveIsMonotoneImproving)
{
    const auto space = rs_space();
    RandomSearchConfig cfg;
    cfg.max_distinct_evals = 60;
    const RandomSearch rs{space, cfg, Direction::maximize, sum_eval};
    const Curve c = rs.run(2);
    double prev = -1.0;
    for (const auto& p : c.points()) {
        EXPECT_GE(p.best, prev);
        prev = p.best;
    }
}

// Curves and totals of seeded router runs, pinned as an FNV-1a digest
// taken before revisits were detected through GenomeTable: exact
// de-duplication leaves every draw, curve point and count unchanged, at
// any worker count.
TEST(RandomSearch, RouterRunsMatchTheirPinnedDigest)
{
    const auto fnv = [](std::uint64_t h, std::uint64_t v) {
        for (int i = 0; i < 8; ++i) h = (h ^ ((v >> (8 * i)) & 0xffu)) * 0x100000001b3ull;
        return h;
    };
    const noc::RouterGenerator router;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        RandomSearchConfig cfg;
        cfg.max_distinct_evals = 300;
        cfg.eval_workers = workers;
        const RandomSearch rs{router.space(), cfg, Direction::maximize,
                              router.metric_eval(ip::Metric::freq_mhz)};
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (const std::uint64_t seed : {1, 2, 3}) {
            EvalTotals totals;
            const Curve c = rs.run(seed, &totals);
            h = fnv(h, c.points().size());
            for (const auto& p : c.points()) {
                h = fnv(h, std::bit_cast<std::uint64_t>(p.evals));
                h = fnv(h, std::bit_cast<std::uint64_t>(p.best));
            }
            h = fnv(h, totals.distinct_evals);
            h = fnv(h, totals.total_eval_calls);
        }
        EXPECT_EQ(h, 0x3354d2e8b85175e1ull) << workers << " workers";
    }
}

TEST(RandomSearch, ExhaustsSmallSpaces)
{
    const auto space = rs_space();  // 100 points
    RandomSearchConfig cfg;
    cfg.max_distinct_evals = 100;
    const RandomSearch rs{space, cfg, Direction::maximize, sum_eval};
    const Curve c = rs.run(3);
    // With enough draws it should find the optimum (18).
    EXPECT_DOUBLE_EQ(c.final_best(), 18.0);
}

TEST(RandomSearch, DeterministicPerSeed)
{
    const auto space = rs_space();
    RandomSearchConfig cfg;
    cfg.max_distinct_evals = 30;
    const RandomSearch rs{space, cfg, Direction::maximize, sum_eval};
    const Curve a = rs.run(7);
    const Curve b = rs.run(7);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.points()[i].evals, b.points()[i].evals);
        EXPECT_DOUBLE_EQ(a.points()[i].best, b.points()[i].best);
    }
}

TEST(RandomSearch, SkipsInfeasiblePoints)
{
    const auto space = rs_space();
    const EvalFn eval = [](const Genome& g) -> Evaluation {
        if (g.gene(0) > 4) return {false, 0.0};
        return {true, static_cast<double>(g.gene(0))};
    };
    RandomSearchConfig cfg;
    cfg.max_distinct_evals = 100;
    const RandomSearch rs{space, cfg, Direction::maximize, eval};
    const Curve c = rs.run(5);
    EXPECT_DOUBLE_EQ(c.final_best(), 4.0);  // best feasible value
}

TEST(RandomSearch, RunManyAggregates)
{
    const auto space = rs_space();
    RandomSearchConfig cfg;
    cfg.max_distinct_evals = 20;
    const RandomSearch rs{space, cfg, Direction::minimize, sum_eval};
    const MultiRunCurve multi = rs.run_many(8);
    EXPECT_EQ(multi.runs(), 8u);
    EXPECT_THROW(rs.run_many(0), std::invalid_argument);
}

TEST(RandomSearch, ExpectedDrawsIsReciprocal)
{
    EXPECT_DOUBLE_EQ(RandomSearch::expected_draws(0.01), 100.0);
    EXPECT_DOUBLE_EQ(RandomSearch::expected_draws(1.0), 1.0);
    EXPECT_THROW(RandomSearch::expected_draws(0.0), std::invalid_argument);
    EXPECT_THROW(RandomSearch::expected_draws(1.5), std::invalid_argument);
}

}  // namespace
}  // namespace nautilus
