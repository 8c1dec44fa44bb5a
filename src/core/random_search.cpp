#include "core/random_search.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/eval_pipeline.hpp"
#include "core/genome.hpp"
#include "core/genome_table.hpp"

namespace nautilus {

void RandomSearchConfig::validate() const
{
    if (max_distinct_evals == 0)
        throw std::invalid_argument("RandomSearchConfig: max_distinct_evals must be >= 1");
    if (eval_workers == 0)
        throw std::invalid_argument("RandomSearchConfig: eval_workers must be >= 1");
    fault.validate();
}

RandomSearch::RandomSearch(const ParameterSpace& space, RandomSearchConfig config,
                           Direction direction, EvalFn eval)
    : space_(space), config_(config), direction_(direction), eval_(std::move(eval))
{
    if (space_.empty()) throw std::invalid_argument("RandomSearch: empty parameter space");
    if (!eval_) throw std::invalid_argument("RandomSearch: null evaluation function");
    config_.validate();
}

Curve RandomSearch::run(std::uint64_t seed, EvalTotals* totals) const
{
    Rng rng{seed};
    EvalPipeline<Evaluation> pipeline{eval_, config_};
    const obs::Tracer& tracer = config_.obs.tracer;
    if (obs::MetricsRegistry* reg = config_.obs.registry()) reg->counter("random.runs").add();
    obs::ProgressTracker* progress = config_.obs.progress_tracker();
    if (progress != nullptr) progress->on_run_start("random", config_.max_distinct_evals);
    if (tracer.enabled()) {
        obs::TraceEvent ev{"run_start"};
        ev.add("engine", "random")
            .add("seed", static_cast<std::size_t>(seed))
            .add("budget", config_.max_distinct_evals)
            .add("workers", config_.eval_workers);
        for (const auto& [key, value] : config_.obs.run_tags) ev.add(key, value);
        tracer.emit(std::move(ev));
    }
    obs::ScopedTimer run_span{tracer, "random.run"};
    Curve curve{direction_};
    double best = worst_value(direction_);
    bool have_best = false;

    // Draws are issued in waves sized by the remaining distinct budget, so a
    // wave can never overshoot it and the draw sequence matches the serial
    // one exactly (each wave's size depends only on earlier waves' results).
    // Bound total draws so tiny spaces (where every point is soon cached)
    // terminate even if the distinct budget exceeds the space size.
    const std::size_t max_draws = config_.max_distinct_evals * 50;
    std::size_t draws = 0;
    std::size_t distinct = 0;  // tracks evaluator state in draw order
    GenomeTable seen;
    std::vector<Genome> wave;
    std::vector<Evaluation> evals;
    while (draws < max_draws && distinct < config_.max_distinct_evals) {
        const std::size_t chunk =
            std::min(config_.max_distinct_evals - distinct, max_draws - draws);
        wave.clear();
        for (std::size_t i = 0; i < chunk; ++i) wave.push_back(Genome::random(space_, rng));
        draws += chunk;
        evals.assign(chunk, Evaluation{});
        pipeline.evaluate_wave(wave, evals);
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
        if (progress != nullptr) {
            progress->on_units(distinct);
            if (have_best) progress->on_best(best);
        }
    }
    if (progress != nullptr) progress->on_run_end();
    pipeline.emit_run_end("random", [&](obs::TraceEvent& ev) {
        ev.add("draws", draws)
            .add("feasible", obs::FieldValue{have_best})
            .add("best", obs::FieldValue{have_best ? best : 0.0});
    });
    if (totals != nullptr) pipeline.fill(*totals);
    return curve;
}

MultiRunCurve RandomSearch::run_many(std::size_t count) const
{
    if (count == 0) throw std::invalid_argument("RandomSearch::run_many: count must be >= 1");
    MultiRunCurve multi{direction_};
    Rng seeder{config_.seed};
    for (std::size_t i = 0; i < count; ++i) {
        Curve c = run(seeder.next_u64());
        if (!c.empty()) multi.add_run(std::move(c));
    }
    return multi;
}

double RandomSearch::expected_draws(double hit_probability)
{
    if (hit_probability <= 0.0 || hit_probability > 1.0)
        throw std::invalid_argument("RandomSearch::expected_draws: probability out of (0, 1]");
    return 1.0 / hit_probability;
}

}  // namespace nautilus
