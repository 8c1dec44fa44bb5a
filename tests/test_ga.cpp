#include "core/ga.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "fixtures.hpp"

namespace nautilus {
namespace {

// A 4-parameter toy space with a known optimum at all-max indices.
// Separable objective: sum of gene values (max 28 at all-7).
GaConfig fast_config(std::size_t generations = 30)
{
    GaConfig cfg;
    cfg.generations = generations;
    cfg.seed = 7;
    return cfg;
}

TEST(GaConfig, ValidationCatchesBadSettings)
{
    GaConfig cfg;
    cfg.population_size = 1;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = GaConfig{};
    cfg.generations = 0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = GaConfig{};
    cfg.mutation_rate = 1.5;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = GaConfig{};
    cfg.crossover_rate = -0.1;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = GaConfig{};
    cfg.elitism = cfg.population_size;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    EXPECT_NO_THROW(GaConfig{}.validate());
}

TEST(GaEngine, RejectsBadConstruction)
{
    const auto space = toy_space();
    const ParameterSpace empty;
    EXPECT_THROW(GaEngine(empty, GaConfig{}, Direction::maximize, sum_eval,
                          HintSet::none(empty)),
                 std::invalid_argument);
    EXPECT_THROW(GaEngine(space, GaConfig{}, Direction::maximize, EvalFn{},
                          HintSet::none(space)),
                 std::invalid_argument);
    // Hints sized for a different space.
    EXPECT_THROW(GaEngine(space, GaConfig{}, Direction::maximize, sum_eval,
                          HintSet{std::vector<ParamHints>(2), 0.0}),
                 std::invalid_argument);
}

TEST(GaEngine, SameSeedIsBitReproducible)
{
    const auto space = toy_space();
    const GaEngine engine{space, fast_config(), Direction::maximize, sum_eval,
                          HintSet::none(space)};
    const RunResult a = engine.run(123);
    const RunResult b = engine.run(123);
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t i = 0; i < a.history.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.history[i].best, b.history[i].best);
        EXPECT_EQ(a.history[i].distinct_evals, b.history[i].distinct_evals);
    }
    EXPECT_EQ(a.best_genome, b.best_genome);
}

TEST(GaEngine, DifferentSeedsDiffer)
{
    const auto space = toy_space();
    const GaEngine engine{space, fast_config(), Direction::maximize, sum_eval,
                          HintSet::none(space)};
    const RunResult a = engine.run(1);
    const RunResult b = engine.run(2);
    bool any_diff = false;
    for (std::size_t i = 0; i < a.history.size(); ++i)
        any_diff |= a.history[i].distinct_evals != b.history[i].distinct_evals;
    EXPECT_TRUE(any_diff);
}

TEST(GaEngine, BestSoFarIsMonotone)
{
    const auto space = toy_space();
    const GaEngine engine{space, fast_config(), Direction::maximize, sum_eval,
                          HintSet::none(space)};
    const RunResult r = engine.run();
    for (std::size_t i = 1; i < r.history.size(); ++i)
        EXPECT_GE(r.history[i].best_so_far, r.history[i - 1].best_so_far);
}

TEST(GaEngine, ElitismNeverLosesTheBest)
{
    const auto space = toy_space();
    GaConfig cfg = fast_config(40);
    cfg.elitism = 1;
    const GaEngine engine{space, cfg, Direction::maximize, sum_eval,
                          HintSet::none(space)};
    const RunResult r = engine.run();
    // With elitism the per-generation best never regresses either.
    for (std::size_t i = 1; i < r.history.size(); ++i)
        EXPECT_GE(r.history[i].best + 1e-12, r.history[i - 1].best);
}

TEST(GaEngine, ConvergesOnSeparableMaximization)
{
    const auto space = toy_space();
    const GaEngine engine{space, fast_config(60), Direction::maximize, sum_eval,
                          HintSet::none(space)};
    const RunResult r = engine.run();
    EXPECT_GE(r.best_eval.value, 26.0);  // near the optimum of 28
}

TEST(GaEngine, ConvergesOnMinimization)
{
    const auto space = toy_space();
    const GaEngine engine{space, fast_config(60), Direction::minimize, sum_eval,
                          HintSet::none(space)};
    const RunResult r = engine.run();
    EXPECT_LE(r.best_eval.value, 2.0);  // near the optimum of 0
}

TEST(GaEngine, BestGenomeMatchesBestEval)
{
    const auto space = toy_space();
    const GaEngine engine{space, fast_config(), Direction::maximize, sum_eval,
                          HintSet::none(space)};
    const RunResult r = engine.run();
    EXPECT_DOUBLE_EQ(sum_eval(r.best_genome).value, r.best_eval.value);
}

TEST(GaEngine, DistinctEvalsNeverExceedPopulationTimesGenerations)
{
    const auto space = toy_space();
    GaConfig cfg = fast_config(20);
    const GaEngine engine{space, cfg, Direction::maximize, sum_eval,
                          HintSet::none(space)};
    const RunResult r = engine.run();
    EXPECT_LE(r.distinct_evals, cfg.population_size * cfg.generations);
    EXPECT_GE(r.distinct_evals, cfg.population_size);  // at least the first generation
}

TEST(GaEngine, CurveTracksHistory)
{
    const auto space = toy_space();
    const GaEngine engine{space, fast_config(), Direction::maximize, sum_eval,
                          HintSet::none(space)};
    const RunResult r = engine.run();
    ASSERT_FALSE(r.curve.empty());
    EXPECT_DOUBLE_EQ(r.curve.final_best(), r.history.back().best_so_far);
    EXPECT_DOUBLE_EQ(r.curve.final_evals(),
                     static_cast<double>(r.history.back().distinct_evals));
}

TEST(GaEngine, HandlesInfeasibleRegions)
{
    const auto space = toy_space();
    // Half the space (odd first gene) is infeasible.
    const EvalFn eval = [](const Genome& g) {
        if (g.gene(0) % 2 == 1) return Evaluation{false, 0.0};
        return sum_eval(g);
    };
    const GaEngine engine{space, fast_config(40), Direction::maximize, eval,
                          HintSet::none(space)};
    const RunResult r = engine.run();
    EXPECT_TRUE(r.best_eval.feasible);
    EXPECT_EQ(r.best_genome.gene(0) % 2, 0u);
    EXPECT_GE(r.best_eval.value, 24.0);  // optimum 27 (gene0 = 6)
}

TEST(GaEngine, SurvivesFullyInfeasibleSpace)
{
    const auto space = toy_space();
    const EvalFn eval = [](const Genome&) { return Evaluation{false, 0.0}; };
    const GaEngine engine{space, fast_config(5), Direction::maximize, eval,
                          HintSet::none(space)};
    const RunResult r = engine.run();
    EXPECT_TRUE(r.curve.empty());
    for (const auto& g : r.history) EXPECT_EQ(g.feasible, 0u);
}

TEST(GaEngine, GenerationStatsAreConsistent)
{
    const auto space = toy_space();
    const GaEngine engine{space, fast_config(), Direction::maximize, sum_eval,
                          HintSet::none(space)};
    const RunResult r = engine.run();
    for (const auto& g : r.history) {
        EXPECT_EQ(g.feasible, GaConfig{}.population_size);
        EXPECT_LE(g.worst, g.mean + 1e-9);
        EXPECT_LE(g.mean, g.best + 1e-9);
        EXPECT_LE(g.best, g.best_so_far + 1e-9);
    }
}

TEST(GaEngine, RunManyAggregatesRequestedRuns)
{
    const auto space = toy_space();
    const GaEngine engine{space, fast_config(10), Direction::maximize, sum_eval,
                          HintSet::none(space)};
    const MultiRunCurve multi = engine.run_many(5);
    EXPECT_EQ(multi.runs(), 5u);
    EXPECT_THROW(engine.run_many(0), std::invalid_argument);
}

TEST(GaEngine, ZeroConfidenceHintsMatchBaselineExactly)
{
    const auto space = toy_space();
    HintSet hints = HintSet::none(space);
    hints.param(0).importance = 90.0;
    hints.param(1).bias = 0.9;
    hints.set_confidence(0.0);  // zero trust: must behave exactly like baseline

    const GaEngine baseline{space, fast_config(), Direction::maximize, sum_eval,
                            HintSet::none(space)};
    const GaEngine guided{space, fast_config(), Direction::maximize, sum_eval, hints};
    const RunResult a = baseline.run(99);
    const RunResult b = guided.run(99);
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t i = 0; i < a.history.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.history[i].best, b.history[i].best);
        EXPECT_EQ(a.history[i].distinct_evals, b.history[i].distinct_evals);
    }
}

class GaKnobSweep : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(GaKnobSweep, RunsToCompletionAcrossKnobs)
{
    const auto [pop, rate] = GetParam();
    const auto space = toy_space();
    GaConfig cfg;
    cfg.population_size = pop;
    cfg.mutation_rate = rate;
    cfg.generations = 15;
    cfg.seed = 3;
    const GaEngine engine{space, cfg, Direction::maximize, sum_eval,
                          HintSet::none(space)};
    const RunResult r = engine.run();
    EXPECT_EQ(r.history.size(), 15u);
    EXPECT_TRUE(r.best_eval.feasible);
}

INSTANTIATE_TEST_SUITE_P(Knobs, GaKnobSweep,
                         ::testing::Combine(::testing::Values(2u, 5u, 10u, 30u),
                                            ::testing::Values(0.0, 0.1, 0.5, 1.0)));

}  // namespace
}  // namespace nautilus
