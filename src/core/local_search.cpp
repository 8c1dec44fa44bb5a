#include "core/local_search.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/breed.hpp"
#include "core/run_scope.hpp"

namespace nautilus {

namespace {

// What SA and HC share around their accept rules: the run scope, the
// proposal context and the walk's lineage (DESIGN.md section 11) --
// random starts are roots, proposals children of the point they mutate,
// accepted steps survivals and the best-so-far holder the winner.
class Walk {
public:
    Walk(const char* engine, const BudgetedConfig& config, double mutation_rate,
         const EvalFn& eval, const ParameterSpace& space, const HintSet& hints,
         std::uint64_t seed)
        : scope{engine, config, eval, config.fault_penalty},
          space_{space},
          ctx_{space, hints, mutation_rate}
    {
        scope.open(seed, config.max_distinct_evals, [&](obs::TraceEvent& ev) {
            ev.add("budget", config.max_distinct_evals)
                .add("workers", config.eval_workers)
                .add("confidence", obs::FieldValue{hints.confidence()});
        });
        lineage_ = scope.record_lineage();
        if (lineage_ != nullptr) origins_.resize(space.size());
    }

    RunScope<Evaluation> scope;

    // A uniform random point; `id` becomes its lineage root, born at `step`.
    Genome root(Rng& rng, std::size_t step, std::uint64_t& id)
    {
        Genome g = Genome::random(space_, rng);
        if (lineage_ != nullptr) {
            id = lineage_->on_root(step, obs::BirthOp::init, space_.size());
            lineage_->flush();
        }
        return g;
    }

    // A proposal from `from`: the hint-aware mutation, retried until a gene
    // changes (a no-op proposal would waste a step without costing an
    // evaluation; a space of single-value domains stays unchanged).  `id`
    // becomes its birth as a child of `from_id` at `step`, with each changed
    // gene's draw class, emitted now unless `flush` is false.
    Genome propose(const Genome& from, std::uint64_t from_id, std::size_t step, Rng& rng,
                   std::uint64_t& id, bool flush = true)
    {
        Genome next = from;
        obs::GeneOrigin* origins = lineage_ != nullptr ? origins_.data() : nullptr;
        std::fill(origins_.begin(), origins_.end(), obs::GeneOrigin::parent_a);
        for (int attempt = 0; attempt < 16; ++attempt)
            if (ctx_.mutate(next, rng, nullptr, origins) > 0) break;
        if (lineage_ != nullptr) {
            id = lineage_->on_child(from_id, obs::k_no_parent, false, step, origins_);
            if (flush) lineage_->flush();
        }
        return next;
    }

    void flush()
    {
        if (lineage_ != nullptr) lineage_->flush();
    }

    void survived(std::uint64_t id)
    {
        if (lineage_ != nullptr) lineage_->on_survived(id);
    }

    void improved(std::uint64_t id)
    {
        if (lineage_ == nullptr) return;
        lineage_->on_improved(id);
        best_id_ = id;
    }

    // Report the final progress and close the run; `best` is the walk's
    // best value when `feasible`.
    void close(EvalTotals* totals, bool feasible, double best)
    {
        scope.report(scope.pipeline.distinct(), feasible ? &best : nullptr);
        std::vector<std::uint64_t> winners;
        if (feasible && best_id_ != obs::k_no_parent) winners.push_back(best_id_);
        scope.close(totals, winners, [&](obs::TraceEvent& ev) {
            ev.add("feasible", obs::FieldValue{feasible})
                .add("best", obs::FieldValue{feasible ? best : 0.0});
        });
    }

private:
    const ParameterSpace& space_;
    BreedContext ctx_;
    obs::LineageRecorder* lineage_ = nullptr;
    std::vector<obs::GeneOrigin> origins_;
    std::uint64_t best_id_ = obs::k_no_parent;
};

}  // namespace

void AnnealingConfig::validate() const
{
    BudgetedConfig::validate("AnnealingConfig");
    if (cooling <= 0.0 || cooling >= 1.0)
        throw std::invalid_argument("AnnealingConfig: cooling out of (0, 1)");
    if (steps_per_temperature == 0)
        throw std::invalid_argument("AnnealingConfig: steps_per_temperature must be >= 1");
    if (mutation_rate <= 0.0 || mutation_rate > 1.0)
        throw std::invalid_argument("AnnealingConfig: mutation_rate out of (0, 1]");
    if (initial_temperature < 0.0)
        throw std::invalid_argument("AnnealingConfig: negative initial temperature");
}

SimulatedAnnealing::SimulatedAnnealing(const ParameterSpace& space, AnnealingConfig config,
                                       Direction direction, EvalFn eval, HintSet hints)
    : BudgetedEngine{"SimulatedAnnealing", space, std::move(config), direction,
                     std::move(eval), std::move(hints)}
{
}

Curve SimulatedAnnealing::run(std::uint64_t seed, EvalTotals* totals) const
{
    Rng rng{seed};
    Walk walk{"sa", config_, config_.mutation_rate, eval_, space_, hints_, seed};
    EvalPipeline<Evaluation>& pipeline = walk.scope.pipeline;
    const FitnessMapper mapper{direction_};
    Curve curve{direction_};

    // Start from a feasible random point (bounded retries).
    std::uint64_t current_id = obs::k_no_parent;
    Genome current = walk.root(rng, 0, current_id);
    Evaluation current_eval = pipeline.evaluate(current);
    for (int tries = 0;
         !current_eval.feasible && tries < 200 && walk.scope.budget_left(config_); ++tries) {
        current = walk.root(rng, 0, current_id);
        current_eval = pipeline.evaluate(current);
    }
    if (!current_eval.feasible) {
        walk.close(totals, false, 0.0);
        return curve;
    }
    walk.improved(current_id);

    double best = current_eval.value;
    curve.append(static_cast<double>(pipeline.distinct()), best);

    // Auto temperature: a few probe moves estimate the cost scale.  The
    // probe chain is built single-threaded (mutation only consumes rng),
    // then evaluated as one concurrent batch; each probe adds at most one
    // distinct evaluation so the wave never overshoots the budget.
    double temperature = config_.initial_temperature;
    if (temperature == 0.0) {
        double spread = 0.0;
        const std::size_t remaining =
            config_.max_distinct_evals - pipeline.distinct();
        std::vector<Genome> probes;
        Genome probe = current;
        std::uint64_t probe_id = current_id;
        for (std::size_t i = 0; i < std::min<std::size_t>(8, remaining); ++i) {
            probe = walk.propose(probe, probe_id, 0, rng, probe_id, /*flush=*/false);
            probes.push_back(probe);
        }
        walk.flush();
        std::vector<Evaluation> probe_evals(probes.size());
        pipeline.evaluate_wave(probes, probe_evals);
        for (const Evaluation& e : probe_evals)
            if (e.feasible)
                spread = std::max(spread, std::abs(e.value - current_eval.value));
        temperature = spread > 0.0 ? spread : std::abs(best) * 0.1 + 1.0;
    }

    std::size_t step = 0;
    while (walk.scope.budget_left(config_)) {
        std::uint64_t cand_id = obs::k_no_parent;
        const Genome candidate = walk.propose(current, current_id, step, rng, cand_id);
        const Evaluation cand_eval = pipeline.evaluate(candidate);
        const double delta = mapper.fitness(cand_eval) - mapper.fitness(current_eval);
        const bool accept =
            delta >= 0.0 ||
            (std::isfinite(delta) && rng.bernoulli(std::exp(delta / temperature)));
        if (accept && cand_eval.feasible) {
            current = candidate;
            current_eval = cand_eval;
            current_id = cand_id;
            walk.survived(cand_id);
            if (no_worse(cand_eval.value, best, direction_)) {
                best = better_of(cand_eval.value, best, direction_);
                walk.improved(cand_id);
                curve.append(static_cast<double>(pipeline.distinct()), best);
            }
        }
        if (++step % config_.steps_per_temperature == 0)
            temperature = std::max(temperature * config_.cooling, 1e-12);
        walk.scope.report(pipeline.distinct(), &best);
    }
    walk.close(totals, true, best);
    return curve;
}

void HillClimbConfig::validate() const
{
    BudgetedConfig::validate("HillClimbConfig");
    if (patience == 0) throw std::invalid_argument("HillClimbConfig: patience must be >= 1");
    if (mutation_rate <= 0.0 || mutation_rate > 1.0)
        throw std::invalid_argument("HillClimbConfig: mutation_rate out of (0, 1]");
}

HillClimber::HillClimber(const ParameterSpace& space, HillClimbConfig config,
                         Direction direction, EvalFn eval, HintSet hints)
    : BudgetedEngine{"HillClimber", space, std::move(config), direction, std::move(eval),
                     std::move(hints)}
{
}

Curve HillClimber::run(std::uint64_t seed, EvalTotals* totals) const
{
    Rng rng{seed};
    Walk walk{"hc", config_, config_.mutation_rate, eval_, space_, hints_, seed};
    EvalPipeline<Evaluation>& pipeline = walk.scope.pipeline;
    Curve curve{direction_};
    double best = worst_value(direction_);
    bool have_best = false;

    std::uint64_t current_id = obs::k_no_parent;
    Genome current = walk.root(rng, 0, current_id);
    Evaluation current_eval = pipeline.evaluate(current);
    std::size_t stale = 0;
    std::size_t step = 0;

    auto note = [&](const Evaluation& e, std::uint64_t id) {
        if (!e.feasible) return;
        if (!have_best || no_worse(e.value, best, direction_)) {
            best = better_of(e.value, best, direction_);
            have_best = true;
            walk.improved(id);
            curve.append(static_cast<double>(pipeline.distinct()), best);
        }
    };
    note(current_eval, current_id);

    // Restart from a random point after `patience` non-improving proposals.
    while (walk.scope.budget_left(config_)) {
        ++step;
        if (stale >= config_.patience || !current_eval.feasible) {
            current = walk.root(rng, step, current_id);
            current_eval = pipeline.evaluate(current);
            note(current_eval, current_id);
            stale = 0;
            continue;
        }
        std::uint64_t cand_id = obs::k_no_parent;
        const Genome candidate = walk.propose(current, current_id, step, rng, cand_id);
        const Evaluation cand_eval = pipeline.evaluate(candidate);
        if (cand_eval.feasible &&
            no_worse(cand_eval.value, current_eval.value, direction_)) {
            const bool strictly =
                !no_worse(current_eval.value, cand_eval.value, direction_);
            current = candidate;
            current_eval = cand_eval;
            current_id = cand_id;
            walk.survived(cand_id);
            note(cand_eval, cand_id);
            stale = strictly ? 0 : stale + 1;
        }
        else {
            ++stale;
        }
        walk.scope.report(pipeline.distinct(), have_best ? &best : nullptr);
    }
    walk.close(totals, have_best, best);
    return curve;
}

}  // namespace nautilus
