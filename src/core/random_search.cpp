#include "core/random_search.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/genome.hpp"
#include "core/genome_table.hpp"
#include "core/run_scope.hpp"

namespace nautilus {

void RandomSearchConfig::validate() const
{
    BudgetedConfig::validate("RandomSearchConfig");
}

RandomSearch::RandomSearch(const ParameterSpace& space, RandomSearchConfig config,
                           Direction direction, EvalFn eval)
    : BudgetedEngine{"RandomSearch", space, std::move(config), direction, std::move(eval),
                     HintSet::none(space)}
{
}

Curve RandomSearch::run(std::uint64_t seed, EvalTotals* totals) const
{
    Rng rng{seed};
    RunScope<Evaluation> scope{"random", config_, eval_, config_.fault_penalty};
    scope.open(seed, config_.max_distinct_evals, [&](obs::TraceEvent& ev) {
        ev.add("budget", config_.max_distinct_evals).add("workers", config_.eval_workers);
    });
    Curve curve{direction_};
    double best = worst_value(direction_);
    bool have_best = false;

    // Draws are issued in waves sized by the remaining distinct budget and
    // call cap, so a wave can never overshoot either and the draw sequence
    // matches the serial one exactly (each wave's size depends only on
    // earlier waves' results).  Every draw is one evaluation call.
    std::size_t distinct = 0;  // tracks evaluator state in draw order
    GenomeTable seen;
    std::vector<Genome> wave;
    std::vector<Evaluation> evals;
    while (scope.budget_left(config_)) {
        const std::size_t chunk = std::min(config_.max_distinct_evals - distinct,
                                           config_.max_calls() - scope.pipeline.calls());
        wave.clear();
        for (std::size_t i = 0; i < chunk; ++i) wave.push_back(Genome::random(space_, rng));
        evals.assign(chunk, Evaluation{});
        scope.pipeline.evaluate_wave(wave, evals);
        for (std::size_t i = 0; i < chunk; ++i) {
            if (!seen.find_or_insert(wave[i].genes()).second) continue;  // revisit, free
            ++distinct;
            if (!evals[i].feasible) continue;
            if (!have_best || no_worse(evals[i].value, best, direction_)) {
                best = better_of(evals[i].value, best, direction_);
                have_best = true;
                curve.append(static_cast<double>(distinct), best);
            }
        }
        scope.report(distinct, have_best ? &best : nullptr);
    }
    scope.close(totals, {}, [&](obs::TraceEvent& ev) {
        ev.add("draws", scope.pipeline.calls())
            .add("feasible", obs::FieldValue{have_best})
            .add("best", obs::FieldValue{have_best ? best : 0.0});
    });
    return curve;
}

double RandomSearch::expected_draws(double hit_probability)
{
    if (hit_probability <= 0.0 || hit_probability > 1.0)
        throw std::invalid_argument("RandomSearch::expected_draws: probability out of (0, 1]");
    return 1.0 / hit_probability;
}

}  // namespace nautilus
