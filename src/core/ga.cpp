#include "core/ga.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/breed.hpp"
#include "core/checkpoint.hpp"
#include "core/run_scope.hpp"

namespace nautilus {

void GaConfig::validate() const
{
    GenerationalConfig::validate("GaConfig", 2);
    if (elitism >= population_size)
        throw std::invalid_argument("GaConfig: elitism must be < population_size");
    if (selection.rank_pressure < 1.0 || selection.rank_pressure > 2.0)
        throw std::invalid_argument("GaConfig: rank_pressure out of [1, 2]");
    if (selection.tournament_size == 0)
        throw std::invalid_argument("GaConfig: tournament_size must be >= 1");
}

void GaEngine::seed_population(std::vector<Genome> seeds)
{
    for (const Genome& g : seeds)
        if (!g.compatible_with(space_))
            throw std::invalid_argument(
                "GaEngine::seed_population: genome incompatible with space");
    if (seeds.size() > config_.population_size) seeds.resize(config_.population_size);
    seeds_ = std::move(seeds);
}

GaEngine::GaEngine(const ParameterSpace& space, GaConfig config, Direction direction,
                   EvalFn eval, HintSet hints)
    : EngineShell{"GaEngine", space, std::move(config), direction, std::move(eval),
                  std::move(hints)}
{
}

RunResult GaEngine::run() const
{
    return run(config_.seed);
}

RunResult GaEngine::run(std::uint64_t seed) const
{
    return run_impl(seed, nullptr);
}

std::uint64_t GaEngine::config_fingerprint(std::uint64_t seed) const
{
    std::uint64_t h = config_.fingerprint(0x6e6175746975ull, space_);  // "nautiu" tag
    h = hash_combine(h, static_cast<std::uint64_t>(config_.selection.kind));
    h = hash_combine(h, std::bit_cast<std::uint64_t>(config_.selection.rank_pressure));
    h = hash_combine(h, config_.selection.tournament_size);
    h = hash_combine(h, config_.elitism);
    h = hash_combine(h, config_.target_value
                            ? std::bit_cast<std::uint64_t>(*config_.target_value)
                            : 0x7a11);
    h = hash_combine(h, config_.stall_generations);
    h = hash_combine(h, config_.fault.retry.max_attempts);
    h = hash_combine(h, config_.fault.tolerate_failures ? 1 : 0);
    h = hash_combine(h, config_.fault_penalty.feasible ? 1 : 0);
    h = hash_combine(h, std::bit_cast<std::uint64_t>(config_.fault_penalty.value));
    h = hash_combine(h, static_cast<std::uint64_t>(direction_));
    h = hash_combine(h, hints_.fingerprint());
    for (const Genome& g : seeds_) h = hash_combine(h, g.key());
    return hash_combine(h, seed);
}

RunResult GaEngine::resume(const std::string& checkpoint_path) const
{
    const GaCheckpoint cp = load_ga_checkpoint(checkpoint_path);
    check_resume(cp.config_hash == config_fingerprint(cp.seed), "GaEngine", checkpoint_path);
    return run_impl(cp.seed, &cp);
}

RunResult GaEngine::run_impl(std::uint64_t seed, const GaCheckpoint* restored) const
{
    Rng rng{seed};
    RunScope<Evaluation> scope{"ga", config_, eval_, config_.fault_penalty};
    EvalPipeline<Evaluation>& pipeline = scope.pipeline;
    pipeline.set_observer(config_.eval_observer);
    const obs::Tracer& tracer = scope.tracer();

    const FitnessMapper mapper{direction_};
    RunResult result{direction_};
    result.history.reserve(config_.generations);
    double best_so_far = worst_value(direction_);
    bool have_best = false;
    std::size_t stall = 0;
    std::vector<Genome> population;
    population.reserve(config_.population_size);

    if (restored != nullptr) {
        rng.restore(restored->rng_state);
        population = restored->population;
        result.history = restored->history;
        for (const CurvePoint& p : restored->curve) result.curve.append(p.evals, p.best);
        have_best = restored->have_best;
        result.best_genome = restored->best_genome;
        result.best_eval = restored->best_eval;
        best_so_far = restored->best_so_far;
        stall = restored->stall;
        scope.restore(*restored);
    }
    else {
        for (const Genome& g : seeds_) population.push_back(g);
        while (population.size() < config_.population_size)
            population.push_back(Genome::random(space_, rng));
    }
    const std::size_t start_gen = scope.start_generation();

    scope.open(seed, config_.generations, [&](obs::TraceEvent& ev) {
        ev.add("population", config_.population_size)
            .add("generations", config_.generations)
            .add("workers", config_.eval_workers)
            .add("mutation_rate", obs::FieldValue{config_.mutation_rate})
            .add("crossover_rate", obs::FieldValue{config_.crossover_rate})
            .add("confidence", obs::FieldValue{hints_.confidence()});
    });

    // Lineage: one birth id per population slot.
    obs::LineageRecorder* lineage = scope.record_lineage();
    std::vector<std::uint64_t> ids;
    std::vector<std::uint64_t> next_ids;
    if (lineage != nullptr) {
        if (restored != nullptr && restored->have_lineage &&
            restored->lineage.slot_ids.size() == population.size()) {
            lineage->restore(restored->lineage);
            ids = restored->lineage.slot_ids;
        }
        else {
            const obs::BirthOp root_op =
                restored != nullptr ? obs::BirthOp::resume : obs::BirthOp::init;
            ids.reserve(population.size());
            for (std::size_t i = 0; i < population.size(); ++i)
                ids.push_back(lineage->on_root(start_gen, root_op, space_.size()));
            lineage->flush();
        }
    }

    // The loop state as "about to evaluate the next generation".
    const auto capture = [&](GaCheckpoint& cp) {
        cp.config_hash = config_fingerprint(seed);
        cp.rng_state = rng.state();
        cp.population = population;
        cp.history = result.history;
        cp.curve = result.curve.points();
        cp.have_best = have_best;
        cp.best_genome = result.best_genome;
        cp.best_eval = result.best_eval;
        cp.best_so_far = best_so_far;
        cp.stall = stall;
        if (lineage != nullptr) {
            cp.have_lineage = true;
            cp.lineage = lineage->snapshot(ids);
        }
    };

    std::vector<Evaluation> evals(config_.population_size);
    std::vector<double> fitness(config_.population_size);

    // Per-run breeding arena (DESIGN.md section 10): hoisted selection
    // tables, per-generation gene mutation probabilities and memoized value
    // distributions.
    BreedConfig breed_cfg;
    breed_cfg.selection = config_.selection;
    breed_cfg.crossover = config_.crossover;
    breed_cfg.crossover_rate = config_.crossover_rate;
    breed_cfg.elitism = config_.elitism;
    breed_cfg.population_size = config_.population_size;
    BreedContext breed_ctx{space_, hints_, config_.mutation_rate};
    DiversityCounter diversity;
    BirthLog birth_log;

    for (std::size_t gen = start_gen; gen < config_.generations; ++gen) {
        if (scope.boundary<GaCheckpoint>(gen, capture)) break;
        // --- Evaluate (fans out across the worker pool) -------------------
        pipeline.evaluate_wave(population, evals);
        for (std::size_t i = 0; i < population.size(); ++i)
            fitness[i] = mapper.fitness(evals[i]);

        // --- Record statistics ------------------------------------------
        GenerationStats stats;
        stats.generation = gen;
        stats.distinct_evals = pipeline.distinct();
        double gen_best = worst_value(direction_);
        double gen_worst = direction_ == Direction::maximize
                               ? std::numeric_limits<double>::infinity()
                               : -std::numeric_limits<double>::infinity();
        double sum = 0.0;
        std::size_t best_index = 0;
        for (std::size_t i = 0; i < population.size(); ++i) {
            if (!evals[i].feasible) continue;
            ++stats.feasible;
            sum += evals[i].value;
            if (no_worse(evals[i].value, gen_best, direction_)) {
                gen_best = evals[i].value;
                best_index = i;
            }
            if (!no_worse(evals[i].value, gen_worst, direction_)) gen_worst = evals[i].value;
        }
        bool improved = false;
        if (stats.feasible > 0) {
            stats.best = gen_best;
            stats.worst = gen_worst;
            stats.mean = sum / static_cast<double>(stats.feasible);
            if (!have_best || no_worse(gen_best, best_so_far, direction_)) {
                if (!have_best || !no_worse(best_so_far, gen_best, direction_)) {
                    result.best_genome = population[best_index];
                    result.best_eval = evals[best_index];
                    improved = true;
                }
                best_so_far = better_of(gen_best, best_so_far, direction_);
                have_best = true;
            }
        }
        if (improved && lineage != nullptr) lineage->on_improved(ids[best_index]);
        stats.best_so_far = best_so_far;
        result.history.push_back(stats);
        if (have_best)
            result.curve.append(static_cast<double>(stats.distinct_evals), best_so_far);
        scope.end_generation(gen, have_best ? &best_so_far : nullptr);
        if (tracer.enabled()) {
            obs::TraceEvent ev{"generation"};
            ev.add("gen", gen)
                .add("best", obs::FieldValue{stats.best})
                .add("mean", obs::FieldValue{stats.mean})
                .add("worst", obs::FieldValue{stats.worst})
                .add("feasible", stats.feasible)
                .add("best_so_far", obs::FieldValue{stats.best_so_far})
                .add("distinct_total", stats.distinct_evals)
                .add("diversity", obs::FieldValue{diversity.measure(population)});
            tracer.emit(std::move(ev));
        }

        // --- Early termination ---------------------------------------------
        if (config_.target_value && have_best &&
            no_worse(best_so_far, *config_.target_value, direction_)) {
            result.hit_target = true;
            break;
        }
        stall = improved ? 0 : stall + 1;
        if (config_.stall_generations > 0 && stall >= config_.stall_generations) {
            result.stalled = true;
            break;
        }

        if (gen + 1 == config_.generations) break;

        // --- Breed the next generation -----------------------------------
        BreedStats breed_stats;
        BirthLog* births = lineage != nullptr ? &birth_log : nullptr;
        {
            obs::ScopedTimer breed_span{tracer, "ga.breed"};
            breed_ctx.begin_generation(gen);
            breed_stats = breed_ctx.breed(population, fitness, breed_cfg, rng,
                                          tracer.enabled(), births);
        }
        if (births != nullptr) {
            // Remap population slots to the newborn generation's birth ids.
            next_ids.clear();
            for (const std::uint32_t e : births->elites)
                next_ids.push_back(lineage->on_elite(ids[e], gen));
            for (ChildProvenance& c : births->children)
                next_ids.push_back(lineage->on_child(ids[c.parent_a], ids[c.parent_b],
                                                     c.crossed, gen,
                                                     std::move(c.origins)));
            ids.swap(next_ids);
            lineage->flush();
        }
        if (tracer.enabled()) {
            const MutationStats& mut_stats = breed_stats.mutation;
            obs::TraceEvent ev{"breed"};
            ev.add("gen", gen)
                .add("children", config_.population_size - config_.elitism)
                .add("elites", config_.elitism)
                .add("crossovers", breed_stats.crossovers)
                .add("genomes_mutated", std::size_t{mut_stats.genomes})
                .add("genes_mutated", std::size_t{mut_stats.genes_mutated})
                .add("bias_draws", std::size_t{mut_stats.bias_draws})
                .add("target_draws", std::size_t{mut_stats.target_draws})
                .add("uniform_draws", std::size_t{mut_stats.uniform_draws})
                .add("importance", obs::FieldValue{hints_.effective_importances(gen)});
            tracer.emit(std::move(ev));
        }
    }

    result.final_population = std::move(population);
    result.final_rng_state = rng.state();
    std::vector<std::uint64_t> winners;
    if (lineage != nullptr && lineage->last_improved() != obs::k_no_parent)
        winners.push_back(lineage->last_improved());
    scope.close(&result, winners, [&](obs::TraceEvent& ev) {
        ev.add("generations", result.history.size())
            .add("feasible", obs::FieldValue{have_best})
            .add("best", obs::FieldValue{have_best ? best_so_far : 0.0})
            .add("hit_target", obs::FieldValue{result.hit_target})
            .add("stalled", obs::FieldValue{result.stalled})
            .add("halted", obs::FieldValue{result.halted});
    });
    return result;
}

MultiRunCurve GaEngine::run_many(std::size_t count, EvalSummary* summary) const
{
    return nautilus::run_many(name_, direction_, config_.seed, count,
                              [&](std::uint64_t seed) {
                                  RunResult r = run(seed);
                                  if (summary != nullptr) summary->absorb(r);
                                  return std::move(r.curve);
                              });
}

}  // namespace nautilus
