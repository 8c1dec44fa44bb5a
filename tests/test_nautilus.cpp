#include "core/nautilus.hpp"

#include <gtest/gtest.h>

#include "fixtures.hpp"

namespace nautilus {
namespace {

ParameterSpace guided_space()
{
    ParameterSpace space;
    for (int i = 0; i < 6; ++i)
        space.add("p" + std::to_string(i), ParamDomain::int_range(0, 9));
    return space;
}

// Objective with optimum at all-9; each unit step matters.
HintSet perfect_hints(const ParameterSpace& space)
{
    HintSet hints = HintSet::none(space);
    for (std::size_t i = 0; i < space.size(); ++i) {
        hints.param(i).importance = 50.0;
        hints.param(i).bias = 0.9;  // metric increases with every parameter
    }
    return hints;
}

TEST(Guidance, NamesAndConfidences)
{
    EXPECT_STREQ(guidance_name(GuidanceLevel::none), "baseline");
    EXPECT_STREQ(guidance_name(GuidanceLevel::weak), "weakly guided");
    EXPECT_STREQ(guidance_name(GuidanceLevel::strong), "strongly guided");
    EXPECT_DOUBLE_EQ(guidance_confidence(GuidanceLevel::none, 0.5), 0.0);
    EXPECT_GT(guidance_confidence(GuidanceLevel::strong, 0.0),
              guidance_confidence(GuidanceLevel::weak, 0.0));
    EXPECT_DOUBLE_EQ(guidance_confidence(GuidanceLevel::custom, 0.37), 0.37);
}

TEST(ApplyGuidance, MaximizeKeepsBiasSign)
{
    const auto space = guided_space();
    const HintSet author = perfect_hints(space);
    const HintSet h = apply_guidance(author, Direction::maximize, GuidanceLevel::strong);
    EXPECT_DOUBLE_EQ(*h.param(0).bias, 0.9);
    EXPECT_GT(h.confidence(), 0.5);
}

TEST(ApplyGuidance, MinimizeFlipsBiasSign)
{
    const auto space = guided_space();
    const HintSet author = perfect_hints(space);
    const HintSet h = apply_guidance(author, Direction::minimize, GuidanceLevel::strong);
    EXPECT_DOUBLE_EQ(*h.param(0).bias, -0.9);
}

TEST(ApplyGuidance, NoneLevelZeroesConfidence)
{
    const auto space = guided_space();
    HintSet author = perfect_hints(space);
    author.set_confidence(0.9);
    const HintSet h = apply_guidance(author, Direction::maximize, GuidanceLevel::none);
    EXPECT_DOUBLE_EQ(h.confidence(), 0.0);
    EXPECT_TRUE(h.is_baseline());
}

TEST(ApplyGuidance, CustomKeepsAuthorConfidence)
{
    const auto space = guided_space();
    HintSet author = perfect_hints(space);
    author.set_confidence(0.61);
    const HintSet h = apply_guidance(author, Direction::maximize, GuidanceLevel::custom);
    EXPECT_DOUBLE_EQ(h.confidence(), 0.61);
}

TEST(NautilusEngine, GuidedReachesOptimumFasterOnAverage)
{
    const auto space = guided_space();
    GaConfig cfg;
    cfg.generations = 40;
    cfg.seed = 11;
    const HintSet author = perfect_hints(space);

    const GaEngine baseline{space, cfg, Direction::maximize, sum_eval,
                            HintSet::none(space)};
    const NautilusEngine guided{space, cfg, Direction::maximize, sum_eval, author,
                                GuidanceLevel::strong};

    const MultiRunCurve base_curve = baseline.run_many(15);
    const MultiRunCurve guided_curve = guided.run_many(15);

    // Quality threshold: within 2 units of the optimum (54).
    const auto base_conv = base_curve.evals_to_reach(52.0);
    const auto guided_conv = guided_curve.evals_to_reach(52.0);
    EXPECT_GE(guided_conv.reached, base_conv.reached);
    EXPECT_GT(guided_curve.mean_final_best() + 0.5, base_curve.mean_final_best());
    if (base_conv.reached > 10 && guided_conv.reached > 10) {
        EXPECT_LT(guided_conv.mean_evals, base_conv.mean_evals);
    }
}

TEST(NautilusEngine, WrongHintsDoNotBreakTheSearch)
{
    // Inverted bias: hints claim the metric decreases with every parameter.
    // The stochastic GA must still find good solutions (paper footnote 1),
    // just more slowly.
    const auto space = guided_space();
    GaConfig cfg;
    cfg.generations = 60;
    cfg.seed = 13;
    HintSet wrong = perfect_hints(space);
    for (std::size_t i = 0; i < space.size(); ++i) wrong.param(i).bias = -0.9;

    const NautilusEngine misled{space, cfg, Direction::maximize, sum_eval, wrong,
                                GuidanceLevel::strong};
    const MultiRunCurve curve = misled.run_many(10);
    // Optimum is 54; even misled runs should get most of the way there.
    EXPECT_GT(curve.mean_final_best(), 40.0);
}

TEST(NautilusEngine, LevelIsRecorded)
{
    const auto space = guided_space();
    GaConfig cfg;
    cfg.generations = 5;
    const NautilusEngine e{space, cfg, Direction::maximize, sum_eval,
                           perfect_hints(space), GuidanceLevel::weak};
    EXPECT_EQ(e.level(), GuidanceLevel::weak);
    EXPECT_DOUBLE_EQ(e.engine().hints().confidence(),
                     guidance_confidence(GuidanceLevel::weak, 0.0));
}

TEST(NautilusEngine, RunIsDeterministicPerSeed)
{
    const auto space = guided_space();
    GaConfig cfg;
    cfg.generations = 10;
    const NautilusEngine e{space, cfg, Direction::maximize, sum_eval,
                           perfect_hints(space), GuidanceLevel::strong};
    const RunResult a = e.run(77);
    const RunResult b = e.run(77);
    EXPECT_EQ(a.best_genome, b.best_genome);
    EXPECT_EQ(a.distinct_evals, b.distinct_evals);
}

class ConfidenceSweep : public ::testing::TestWithParam<double> {};

TEST_P(ConfidenceSweep, AnyConfidenceProducesValidRuns)
{
    const auto space = guided_space();
    GaConfig cfg;
    cfg.generations = 15;
    cfg.seed = 17;
    HintSet hints = perfect_hints(space);
    hints.set_confidence(GetParam());
    const GaEngine e{space, cfg, Direction::maximize, sum_eval, hints};
    const RunResult r = e.run();
    EXPECT_TRUE(r.best_eval.feasible);
    EXPECT_GE(r.best_eval.value, 30.0);
}

INSTANTIATE_TEST_SUITE_P(Confidences, ConfidenceSweep,
                         ::testing::Values(0.0, 0.2, 0.45, 0.8, 1.0));

}  // namespace
}  // namespace nautilus
