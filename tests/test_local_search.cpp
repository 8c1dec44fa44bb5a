#include "core/local_search.hpp"

#include <gtest/gtest.h>

#include "core/eval_pipeline.hpp"
#include "fixtures.hpp"

namespace nautilus {
namespace {

ParameterSpace ls_space()
{
    ParameterSpace space;
    for (int i = 0; i < 5; ++i)
        space.add("p" + std::to_string(i), ParamDomain::int_range(0, 9));
    return space;
}

// Separable maximization objective; optimum 45.
// Deceptive objective with a local optimum plateau at all-zeros.
Evaluation deceptive_eval(const Genome& g)
{
    double v = 0.0;
    bool all_low = true;
    for (std::size_t i = 0; i < g.size(); ++i) {
        v += g.gene(i);
        all_low &= g.gene(i) <= 1;
    }
    if (all_low) return {true, 30.0};  // trap: decent score, far from optimum
    return {true, v};
}

HintSet up_hints(const ParameterSpace& space)
{
    HintSet hints = HintSet::none(space);
    for (std::size_t i = 0; i < space.size(); ++i) {
        hints.param(i).importance = 50.0;
        hints.param(i).bias = 0.8;
    }
    hints.set_confidence(0.8);
    return hints;
}

// ---- configs ----------------------------------------------------------------

TEST(AnnealingConfig, Validation)
{
    AnnealingConfig c;
    EXPECT_NO_THROW(c.validate());
    c.cooling = 1.0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
    c = AnnealingConfig{};
    c.max_distinct_evals = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
    c = AnnealingConfig{};
    c.mutation_rate = 0.0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
    c = AnnealingConfig{};
    c.steps_per_temperature = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(HillClimbConfig, Validation)
{
    HillClimbConfig c;
    EXPECT_NO_THROW(c.validate());
    c.patience = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
    c = HillClimbConfig{};
    c.mutation_rate = 1.5;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

// ---- simulated annealing -----------------------------------------------------

TEST(SimulatedAnnealing, RespectsEvaluationBudget)
{
    const auto space = ls_space();
    AnnealingConfig cfg;
    cfg.max_distinct_evals = 60;
    const SimulatedAnnealing sa{space, cfg, Direction::maximize, sum_eval,
                                HintSet::none(space)};
    const Curve c = sa.run(1);
    ASSERT_FALSE(c.empty());
    EXPECT_LE(c.final_evals(), 60.0);
}

TEST(SimulatedAnnealing, FindsGoodSolutionsOnSeparableObjective)
{
    const auto space = ls_space();
    AnnealingConfig cfg;
    cfg.max_distinct_evals = 400;
    const SimulatedAnnealing sa{space, cfg, Direction::maximize, sum_eval,
                                HintSet::none(space)};
    const MultiRunCurve multi = sa.run_many(10);
    EXPECT_GT(multi.mean_final_best(), 38.0);  // near the optimum of 45
}

TEST(SimulatedAnnealing, DeterministicPerSeed)
{
    const auto space = ls_space();
    AnnealingConfig cfg;
    cfg.max_distinct_evals = 100;
    const SimulatedAnnealing sa{space, cfg, Direction::maximize, sum_eval,
                                HintSet::none(space)};
    const Curve a = sa.run(9);
    const Curve b = sa.run(9);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_DOUBLE_EQ(a.final_best(), b.final_best());
}

TEST(SimulatedAnnealing, HintsAccelerateConvergence)
{
    const auto space = ls_space();
    AnnealingConfig cfg;
    cfg.max_distinct_evals = 300;
    const SimulatedAnnealing plain{space, cfg, Direction::maximize, sum_eval,
                                   HintSet::none(space)};
    const SimulatedAnnealing guided{space, cfg, Direction::maximize, sum_eval,
                                    up_hints(space)};
    const auto plain_conv = plain.run_many(12).evals_to_reach(43.0);
    const auto guided_conv = guided.run_many(12).evals_to_reach(43.0);
    EXPECT_GE(guided_conv.reached, plain_conv.reached);
    if (plain_conv.reached >= 6 && guided_conv.reached >= 6) {
        EXPECT_LT(guided_conv.mean_evals, plain_conv.mean_evals * 1.2);
    }
}

TEST(SimulatedAnnealing, MinimizationWorks)
{
    const auto space = ls_space();
    AnnealingConfig cfg;
    cfg.max_distinct_evals = 400;
    const SimulatedAnnealing sa{space, cfg, Direction::minimize, sum_eval,
                                HintSet::none(space)};
    EXPECT_LT(sa.run_many(8).mean_final_best(), 6.0);
}

TEST(SimulatedAnnealing, SurvivesFullyInfeasibleSpace)
{
    const auto space = ls_space();
    AnnealingConfig cfg;
    cfg.max_distinct_evals = 30;
    const EvalFn eval = [](const Genome&) { return Evaluation{false, 0.0}; };
    const SimulatedAnnealing sa{space, cfg, Direction::maximize, eval,
                                HintSet::none(space)};
    EXPECT_TRUE(sa.run(3).empty());
    EXPECT_THROW(sa.run_many(0), std::invalid_argument);
}

// ---- hill climbing -----------------------------------------------------------

TEST(HillClimber, RespectsEvaluationBudget)
{
    const auto space = ls_space();
    HillClimbConfig cfg;
    cfg.max_distinct_evals = 50;
    const HillClimber hc{space, cfg, Direction::maximize, sum_eval, HintSet::none(space)};
    const Curve c = hc.run(1);
    ASSERT_FALSE(c.empty());
    EXPECT_LE(c.final_evals(), 50.0);
}

TEST(HillClimber, ClimbsSeparableObjective)
{
    const auto space = ls_space();
    HillClimbConfig cfg;
    cfg.max_distinct_evals = 400;
    const HillClimber hc{space, cfg, Direction::maximize, sum_eval, HintSet::none(space)};
    EXPECT_GT(hc.run_many(10).mean_final_best(), 42.0);
}

TEST(HillClimber, RestartsEscapeTheTrap)
{
    const auto space = ls_space();
    HillClimbConfig cfg;
    cfg.max_distinct_evals = 600;
    cfg.patience = 25;
    const HillClimber hc{space, cfg, Direction::maximize, deceptive_eval,
                         HintSet::none(space)};
    // The trap plateau scores 30; the true optimum region scores up to 45.
    EXPECT_GT(hc.run_many(10).mean_final_best(), 38.0);
}

TEST(HillClimber, CurveIsMonotone)
{
    const auto space = ls_space();
    HillClimbConfig cfg;
    cfg.max_distinct_evals = 200;
    const HillClimber hc{space, cfg, Direction::maximize, sum_eval, HintSet::none(space)};
    const Curve c = hc.run(5);
    double prev = -1.0;
    for (const auto& p : c.points()) {
        EXPECT_GE(p.best, prev);
        prev = p.best;
    }
}

TEST(HillClimber, DeterministicPerSeed)
{
    const auto space = ls_space();
    HillClimbConfig cfg;
    cfg.max_distinct_evals = 120;
    const HillClimber hc{space, cfg, Direction::minimize, sum_eval, HintSet::none(space)};
    EXPECT_DOUBLE_EQ(hc.run(4).final_best(), hc.run(4).final_best());
}

TEST(HillClimber, GuidedBeatsUnguidedOnAverage)
{
    const auto space = ls_space();
    HillClimbConfig cfg;
    cfg.max_distinct_evals = 250;
    const HillClimber plain{space, cfg, Direction::maximize, sum_eval,
                            HintSet::none(space)};
    const HillClimber guided{space, cfg, Direction::maximize, sum_eval, up_hints(space)};
    EXPECT_GE(guided.run_many(12).mean_final_best() + 0.5,
              plain.run_many(12).mean_final_best());
}

// A budget beyond the points the walk can reach: the call cap ends the run
// (k_calls_per_budget calls per unit of budget) once every point is known.
ParameterSpace four_point_space()
{
    ParameterSpace space;
    space.add("a", ParamDomain::int_range(0, 1));
    space.add("b", ParamDomain::int_range(0, 1));
    return space;
}

TEST(SimulatedAnnealing, BudgetBeyondTheSpaceStopsAtTheCallCap)
{
    const auto space = four_point_space();
    AnnealingConfig cfg;
    cfg.max_distinct_evals = 10;
    const SimulatedAnnealing sa{space, cfg, Direction::maximize, sum_eval,
                                HintSet::none(space)};
    EvalTotals totals;
    const Curve c = sa.run(3, &totals);
    EXPECT_EQ(totals.distinct_evals, 4u);
    EXPECT_EQ(totals.total_eval_calls, cfg.max_calls());
    EXPECT_FALSE(totals.halted);
    EXPECT_EQ(c.final_best(), 2.0);
}

TEST(HillClimber, BudgetBeyondTheSpaceStopsAtTheCallCap)
{
    const auto space = four_point_space();
    HillClimbConfig cfg;
    cfg.max_distinct_evals = 10;
    const HillClimber hc{space, cfg, Direction::maximize, sum_eval, HintSet::none(space)};
    EvalTotals totals;
    const Curve c = hc.run(3, &totals);
    EXPECT_EQ(totals.distinct_evals, 4u);
    EXPECT_EQ(totals.total_eval_calls, cfg.max_calls());
    EXPECT_FALSE(totals.halted);
    EXPECT_EQ(c.final_best(), 2.0);
}

TEST(LocalSearch, ConstructionValidation)
{
    const auto space = ls_space();
    const ParameterSpace empty;
    EXPECT_THROW(SimulatedAnnealing(empty, AnnealingConfig{}, Direction::maximize,
                                    sum_eval, HintSet::none(empty)),
                 std::invalid_argument);
    EXPECT_THROW(HillClimber(space, HillClimbConfig{}, Direction::maximize, EvalFn{},
                             HintSet::none(space)),
                 std::invalid_argument);
}

}  // namespace
}  // namespace nautilus
