// Tests for GA conveniences beyond the paper's core loop: early stopping
// (target / stall) and seeded initial populations.

#include <gtest/gtest.h>

#include "core/ga.hpp"
#include "fixtures.hpp"

namespace nautilus {
namespace {

ParameterSpace feature_space()
{
    ParameterSpace space;
    for (int i = 0; i < 4; ++i)
        space.add("p" + std::to_string(i), ParamDomain::int_range(0, 7));
    return space;
}

TEST(GaEarlyStop, TargetValueStopsTheRun)
{
    const auto space = feature_space();
    GaConfig cfg;
    cfg.generations = 80;
    cfg.seed = 5;
    cfg.target_value = 20.0;  // easily reachable (max 28)
    const GaEngine engine{space, cfg, Direction::maximize, sum_eval,
                          HintSet::none(space)};
    const RunResult r = engine.run();
    EXPECT_TRUE(r.hit_target);
    EXPECT_LT(r.history.size(), 80u);
    EXPECT_GE(r.history.back().best_so_far, 20.0);
}

TEST(GaEarlyStop, UnreachableTargetRunsAllGenerations)
{
    const auto space = feature_space();
    GaConfig cfg;
    cfg.generations = 10;
    cfg.target_value = 100.0;  // impossible (max 28)
    const GaEngine engine{space, cfg, Direction::maximize, sum_eval,
                          HintSet::none(space)};
    const RunResult r = engine.run();
    EXPECT_FALSE(r.hit_target);
    EXPECT_EQ(r.history.size(), 10u);
}

TEST(GaEarlyStop, TargetIsDirectionAware)
{
    const auto space = feature_space();
    GaConfig cfg;
    cfg.generations = 80;
    cfg.seed = 6;
    cfg.target_value = 5.0;  // minimize: stop at <= 5
    const GaEngine engine{space, cfg, Direction::minimize, sum_eval,
                          HintSet::none(space)};
    const RunResult r = engine.run();
    EXPECT_TRUE(r.hit_target);
    EXPECT_LE(r.best_eval.value, 5.0);
}

TEST(GaEarlyStop, StallCriterionTriggers)
{
    // Constant fitness: no improvement is possible after generation 0.
    const auto space = feature_space();
    GaConfig cfg;
    cfg.generations = 80;
    cfg.stall_generations = 5;
    const EvalFn flat = [](const Genome&) { return Evaluation{true, 1.0}; };
    const GaEngine engine{space, cfg, Direction::maximize, flat, HintSet::none(space)};
    const RunResult r = engine.run();
    EXPECT_TRUE(r.stalled);
    EXPECT_FALSE(r.hit_target);
    EXPECT_LE(r.history.size(), 7u);  // gen 0 improves; 5 stalls follow
}

TEST(GaEarlyStop, StallDisabledByDefault)
{
    const auto space = feature_space();
    GaConfig cfg;
    cfg.generations = 12;
    const EvalFn flat = [](const Genome&) { return Evaluation{true, 1.0}; };
    const GaEngine engine{space, cfg, Direction::maximize, flat, HintSet::none(space)};
    const RunResult r = engine.run();
    EXPECT_FALSE(r.stalled);
    EXPECT_EQ(r.history.size(), 12u);
}

TEST(GaSeeding, SeedsAppearInTheFirstGeneration)
{
    const auto space = feature_space();
    GaConfig cfg;
    cfg.generations = 1;
    GaEngine engine{space, cfg, Direction::maximize, sum_eval, HintSet::none(space)};
    const Genome best{{7, 7, 7, 7}};
    engine.seed_population({best});
    const RunResult r = engine.run(42);
    // With the optimum seeded, generation 0's best is already 28.
    EXPECT_DOUBLE_EQ(r.history.front().best, 28.0);
    EXPECT_EQ(r.best_genome, best);
}

TEST(GaSeeding, SeedingTheDefaultImprovesEarlyQuality)
{
    const auto space = feature_space();
    GaConfig cfg;
    cfg.generations = 2;
    cfg.seed = 9;
    const Genome decent{{6, 6, 6, 6}};

    GaEngine seeded{space, cfg, Direction::maximize, sum_eval, HintSet::none(space)};
    seeded.seed_population({decent});
    const GaEngine unseeded{space, cfg, Direction::maximize, sum_eval,
                            HintSet::none(space)};
    EXPECT_GE(seeded.run(1).history.front().best, 24.0);
    // Unseeded generation-0 best of 10 random genomes is very unlikely to
    // reach 24 (P ~ tiny); compare deterministically on this seed.
    EXPECT_LT(unseeded.run(1).history.front().best, 24.0);
}

TEST(GaSeeding, RejectsIncompatibleSeeds)
{
    const auto space = feature_space();
    GaEngine engine{space, GaConfig{}, Direction::maximize, sum_eval,
                    HintSet::none(space)};
    EXPECT_THROW(engine.seed_population({Genome{{1, 2}}}), std::invalid_argument);
}

TEST(GaSeeding, ExcessSeedsAreTruncated)
{
    const auto space = feature_space();
    GaConfig cfg;
    GaEngine engine{space, cfg, Direction::maximize, sum_eval, HintSet::none(space)};
    std::vector<Genome> many(cfg.population_size + 5, Genome::zeros(space));
    engine.seed_population(many);
    EXPECT_EQ(engine.seeds().size(), cfg.population_size);
    EXPECT_NO_THROW(engine.run(1));
}

TEST(GaSeeding, EarlyStopPlusSeedFindsTargetImmediately)
{
    const auto space = feature_space();
    GaConfig cfg;
    cfg.generations = 80;
    cfg.target_value = 28.0;
    GaEngine engine{space, cfg, Direction::maximize, sum_eval, HintSet::none(space)};
    engine.seed_population({Genome{{7, 7, 7, 7}}});
    const RunResult r = engine.run(1);
    EXPECT_TRUE(r.hit_target);
    EXPECT_EQ(r.history.size(), 1u);
    EXPECT_EQ(r.distinct_evals, GaConfig{}.population_size);
}

}  // namespace
}  // namespace nautilus
