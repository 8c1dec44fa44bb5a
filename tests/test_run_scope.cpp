// The run scaffold shared by the five engines (core/run_scope.hpp): one
// run_many for GA, random search, SA and HC, and the budget/cancel check of
// the budgeted engines.

#include "core/run_scope.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/ga.hpp"
#include "core/nsga2.hpp"
#include "core/local_search.hpp"
#include "core/random_search.hpp"
#include "fixtures.hpp"

namespace nautilus {
namespace {

// Feasible on 1/64 of toy_space() (genes 0 and 1 both zero), so a run of
// ten evaluations finds no feasible point about 85% of the time.
Evaluation sparse_eval(const Genome& g)
{
    if (g.gene(0) != 0 || g.gene(1) != 0) return {false, 0.0};
    return sum_eval(g);
}

const Curve& curve_of(const RunResult& r) { return r.curve; }
const Curve& curve_of(const Curve& c) { return c; }

// run_many(count) must be exactly the non-empty curves of run(s_i), in
// order, with s_i drawn from Rng{seed}; count == 0 is rejected.
template <typename Engine>
void expect_run_many_is_seeded_runs(const Engine& engine, std::uint64_t seed)
{
    constexpr std::size_t count = 40;
    Rng seeder{seed};
    std::vector<Curve> expected;
    for (std::size_t i = 0; i < count; ++i) {
        const auto run = engine.run(seeder.next_u64());
        if (!curve_of(run).empty()) expected.push_back(curve_of(run));
    }
    // Some runs found a feasible point and some did not, so the skip is
    // exercised.
    ASSERT_GT(expected.size(), 0u);
    ASSERT_LT(expected.size(), count);

    const MultiRunCurve multi = engine.run_many(count);
    ASSERT_EQ(multi.runs(), expected.size());
    for (std::size_t r = 0; r < expected.size(); ++r) {
        const auto& got = multi.run(r).points();
        const auto& want = expected[r].points();
        ASSERT_EQ(got.size(), want.size()) << "run " << r;
        for (std::size_t p = 0; p < want.size(); ++p) {
            EXPECT_EQ(got[p].evals, want[p].evals) << "run " << r << " point " << p;
            EXPECT_EQ(got[p].best, want[p].best) << "run " << r << " point " << p;
        }
    }
    EXPECT_THROW((void)engine.run_many(0), std::invalid_argument);
}

class RunMany : public ::testing::TestWithParam<std::string> {};

TEST_P(RunMany, EqualsTheSeededRunsSkippingEmptyCurves)
{
    const ParameterSpace space = toy_space();
    const std::string& engine = GetParam();
    if (engine == "ga") {
        GaConfig cfg;
        cfg.generations = 1;
        cfg.seed = 31;
        const GaEngine ga{space, cfg, Direction::maximize, sparse_eval, HintSet::none(space)};
        expect_run_many_is_seeded_runs(ga, cfg.seed);
    }
    else if (engine == "random") {
        RandomSearchConfig cfg;
        cfg.max_distinct_evals = 10;
        const RandomSearch rs{space, cfg, Direction::maximize, sparse_eval};
        expect_run_many_is_seeded_runs(rs, cfg.seed);
    }
    else if (engine == "sa") {
        AnnealingConfig cfg;
        cfg.max_distinct_evals = 10;
        const SimulatedAnnealing sa{space, cfg, Direction::maximize, sparse_eval,
                                    HintSet::none(space)};
        expect_run_many_is_seeded_runs(sa, cfg.seed);
    }
    else {
        HillClimbConfig cfg;
        cfg.max_distinct_evals = 10;
        const HillClimber hc{space, cfg, Direction::maximize, sparse_eval,
                             HintSet::none(space)};
        expect_run_many_is_seeded_runs(hc, cfg.seed);
    }
}

INSTANTIATE_TEST_SUITE_P(Engines, RunMany, ::testing::Values("ga", "random", "sa", "hc"),
                         [](const auto& info) { return info.param; });

// An objective that trips `cancel` on its `at`-th call, which is the run's
// `at`-th distinct evaluation (the memo answers revisits).
EvalFn cancelling_eval(std::shared_ptr<std::atomic<bool>> cancel, int at)
{
    auto calls = std::make_shared<int>(0);
    return [cancel, calls, at](const Genome& g) {
        if (++*calls == at) cancel->store(true);
        return sum_eval(g);
    };
}

// A budgeted engine checks the cancel token between steps (SA, HC) or waves
// (random search) and stops with halted set; without a cancel the same run
// spends its whole budget.
template <typename Config, typename Make>
void expect_cancel_halts(Config cfg, Make make, std::size_t max_evals_after_cancel)
{
    const ParameterSpace space = toy_space();
    cfg.max_distinct_evals = 200;

    EvalTotals plain;
    (void)make(space, cfg, EvalFn{sum_eval}).run(5, &plain);
    EXPECT_FALSE(plain.halted);
    EXPECT_EQ(plain.distinct_evals, 200u);

    const auto cancel = std::make_shared<std::atomic<bool>>(false);
    cfg.cancel = cancel;
    EvalTotals cancelled;
    (void)make(space, cfg, cancelling_eval(cancel, 30)).run(5, &cancelled);
    EXPECT_TRUE(cancelled.halted);
    EXPECT_GE(cancelled.distinct_evals, 30u);
    EXPECT_LE(cancelled.distinct_evals, 30u + max_evals_after_cancel);
    EXPECT_LT(cancelled.distinct_evals, 200u);
}

TEST(BudgetedCancel, RandomSearchStopsAfterTheCurrentWave)
{
    // The first wave draws the whole budget at once; the cancel lands in it.
    expect_cancel_halts(
        RandomSearchConfig{},
        [](const ParameterSpace& s, const RandomSearchConfig& c, EvalFn f) {
            return RandomSearch{s, c, Direction::maximize, std::move(f)};
        },
        200 - 30);
}

TEST(BudgetedCancel, AnnealingStopsAtTheNextStep)
{
    expect_cancel_halts(
        AnnealingConfig{},
        [](const ParameterSpace& s, const AnnealingConfig& c, EvalFn f) {
            return SimulatedAnnealing{s, c, Direction::maximize, std::move(f),
                                      HintSet::none(s)};
        },
        0);
}

TEST(BudgetedCancel, HillClimberStopsAtTheNextStep)
{
    expect_cancel_halts(
        HillClimbConfig{},
        [](const ParameterSpace& s, const HillClimbConfig& c, EvalFn f) {
            return HillClimber{s, c, Direction::maximize, std::move(f), HintSet::none(s)};
        },
        0);
}

// A run the generation boundary halts reports it in its result and in its
// run_end, for both checkpointed engines; the halt writes the checkpoint.
TEST(GenerationBoundary, HaltIsReportedInResultAndRunEnd)
{
    const ParameterSpace space = toy_space();
    const std::string path = ::testing::TempDir() + "nautilus_run_scope_halt.ckpt";
    const auto halted_field = [](const obs::MemorySink& sink) {
        const auto ends = sink.events_of("run_end");
        EXPECT_EQ(ends.size(), 1u);
        const obs::FieldValue* f = ends.empty() ? nullptr : ends.back().find("halted");
        return f != nullptr && std::get<bool>(*f);
    };

    GaConfig ga;
    ga.generations = 10;
    ga.checkpoint_path = path;
    ga.halt_at_generation = 4;
    const auto ga_sink = std::make_shared<obs::MemorySink>();
    ga.obs.tracer = obs::Tracer{ga_sink};
    std::remove(path.c_str());
    const RunResult r = GaEngine{space, ga, Direction::maximize, sum_eval,
                                 HintSet::none(space)}.run();
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.history.size(), 4u);
    EXPECT_TRUE(halted_field(*ga_sink));
    EXPECT_EQ(load_ga_checkpoint(path).generation, 4u);

    MultiObjectiveConfig mo;
    mo.generations = 10;
    mo.checkpoint_path = path;
    mo.halt_at_generation = 3;
    const auto mo_sink = std::make_shared<obs::MemorySink>();
    mo.obs.tracer = obs::Tracer{mo_sink};
    std::remove(path.c_str());
    const MultiEvalFn two = [](const Genome& g) {
        return std::optional<std::vector<double>>{{sum_eval(g).value, double(g.gene(0))}};
    };
    const MultiObjectiveResult m =
        Nsga2Engine{space, mo, {Direction::maximize, Direction::minimize}, two,
                    HintSet::none(space)}
            .run();
    EXPECT_TRUE(m.halted);
    EXPECT_TRUE(halted_field(*mo_sink));
    EXPECT_EQ(load_nsga2_checkpoint(path).generation, 3u);
    std::remove(path.c_str());
}

TEST(BudgetedConfig, CallCapIsFiftyCallsPerBudgetUnitAndSaturates)
{
    RandomSearchConfig cfg;
    cfg.max_distinct_evals = 19000;
    EXPECT_EQ(cfg.max_calls(), 950000u);
    cfg.max_distinct_evals = std::numeric_limits<std::size_t>::max() / 2;
    EXPECT_EQ(cfg.max_calls(), std::numeric_limits<std::size_t>::max());
}

}  // namespace
}  // namespace nautilus
