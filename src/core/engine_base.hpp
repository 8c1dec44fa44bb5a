#pragma once
// What the search engines are built from (DESIGN.md section 6): the config
// fields they share, the end-of-run totals they report, the seeded
// run_many loop and the engine shell.  RunScope (core/run_scope.hpp) runs
// a search with them.
//
//   RunConfig           seed, eval_workers, obs, fault, store, store_namespace, cancel
//   GenerationalConfig  + population_size, generations, mutation_rate, crossover_rate,
//                       crossover, checkpoint_path, halt_at_generation (GA, NSGA-II)
//   BudgetedConfig      + max_distinct_evals, fault_penalty (random search, SA, HC)

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/eval_store.hpp"
#include "core/evaluator.hpp"
#include "core/fault.hpp"
#include "core/fitness.hpp"
#include "core/hints.hpp"
#include "core/operators.hpp"
#include "core/parameter.hpp"
#include "core/rng.hpp"
#include "core/run_stats.hpp"
#include "obs/obs.hpp"

namespace nautilus {

struct RunConfig {
    std::uint64_t seed = 1;
    // Threads evaluating each wave (1 = serial); results are bit-for-bit
    // identical for any worker count.
    std::size_t eval_workers = 1;
    // Tracing + metrics (off by default; DESIGN.md section 7).  Search
    // results are identical with or without them.
    obs::Instrumentation obs;
    // Fault tolerance (DESIGN.md section 8): with tolerate_failures on, an
    // evaluation that still fails after its retries is quarantined and
    // answered with the engine's penalty instead of aborting the run.
    FaultPolicy fault;
    // Cross-run persistent store, consulted below the memo and above the
    // fault guard (DESIGN.md section 9).  A hit still charges a distinct
    // evaluation, so results are identical with or without it.
    std::shared_ptr<EvalStore> store;
    std::uint64_t store_namespace = 0;  // EvalStore::namespace_key(...)
    // Cooperative cancellation (DELETE /jobs/<id>): the run stops with
    // halted = true, GA and NSGA-II at a checkpointed generation boundary
    // (a resubmission resumes), the budgeted engines between steps or waves
    // (a resubmission starts over).  Like the store, not fingerprinted.
    std::shared_ptr<const std::atomic<bool>> cancel;

    bool cancelled() const
    {
        return cancel != nullptr && cancel->load(std::memory_order_acquire);
    }

protected:
    // Throws std::invalid_argument, prefixing the message with `name`.
    void validate(const char* name) const
    {
        if (eval_workers == 0)
            throw std::invalid_argument(std::string{name} + ": eval_workers must be >= 1");
        fault.validate();
    }
};

// GA and NSGA-II: the generational engines.
struct GenerationalConfig : RunConfig {
    std::size_t population_size = 10;  // paper section 4.1 (NSGA-II: 24)
    std::size_t generations = 80;      // paper section 4.1 (NSGA-II: 40)
    double mutation_rate = 0.1;        // per gene, paper section 4.1
    double crossover_rate = 0.9;
    CrossoverKind crossover = CrossoverKind::single_point;

    // When set, the full run state is written here atomically at every
    // generation boundary, and a checkpoint resumes bit-exactly
    // (DESIGN.md section 8).
    std::string checkpoint_path;
    // Nonzero: checkpoint at this generation and stop with halted = true,
    // a deterministic stand-in for a killed process (`--die-at-gen`).
    std::size_t halt_at_generation = 0;

    // The start of a config fingerprint: `tag`, the space's shape and the
    // fields above a resumed run depends on.
    std::uint64_t fingerprint(std::uint64_t tag, const ParameterSpace& space) const
    {
        std::uint64_t h = hash_combine(tag, space.size());
        for (const Parameter& p : space) h = hash_combine(h, p.domain.cardinality());
        h = hash_combine(h, population_size);
        h = hash_combine(h, generations);
        h = hash_combine(h, std::bit_cast<std::uint64_t>(mutation_rate));
        h = hash_combine(h, std::bit_cast<std::uint64_t>(crossover_rate));
        return hash_combine(h, static_cast<std::uint64_t>(crossover));
    }

protected:
    void validate(const char* name, std::size_t min_population) const
    {
        const std::string prefix = std::string{name} + ": ";
        if (population_size < min_population)
            throw std::invalid_argument(prefix + "population_size must be >= " +
                                        std::to_string(min_population));
        if (generations == 0) throw std::invalid_argument(prefix + "generations must be >= 1");
        if (mutation_rate < 0.0 || mutation_rate > 1.0)
            throw std::invalid_argument(prefix + "mutation_rate out of [0, 1]");
        if (crossover_rate < 0.0 || crossover_rate > 1.0)
            throw std::invalid_argument(prefix + "crossover_rate out of [0, 1]");
        RunConfig::validate(name);
        if (halt_at_generation != 0 && checkpoint_path.empty())
            throw std::invalid_argument(prefix + "halt_at_generation requires checkpoint_path");
    }
};

// A budgeted run also stops after this many evaluation calls (memo hits
// included) per unit of its distinct budget, so a budget beyond the points
// it can reach still ends.
inline constexpr std::size_t k_calls_per_budget = 50;

struct BudgetedConfig : RunConfig {
    std::size_t max_distinct_evals = 800;  // same budget axis as the GA benches
    Evaluation fault_penalty{false, 0.0};  // the answer for a quarantined design

    std::size_t max_calls() const
    {
        constexpr std::size_t most = std::numeric_limits<std::size_t>::max();
        return max_distinct_evals > most / k_calls_per_budget
                   ? most
                   : max_distinct_evals * k_calls_per_budget;
    }

protected:
    void validate(const char* name) const
    {
        if (max_distinct_evals == 0)
            throw std::invalid_argument(std::string{name} + ": max_distinct_evals must be >= 1");
        RunConfig::validate(name);
    }
};

// End-of-run evaluation accounting, written by RunScope::close().
// RunResult, MultiObjectiveResult and serve::JobOutcome derive from it.
struct EvalTotals {
    bool halted = false;               // stopped early by halt_at_generation or a cancel
    std::size_t start_generation = 0;  // nonzero when resumed from a checkpoint
    std::size_t distinct_evals = 0;    // memo misses: the paper's cost
    std::size_t total_eval_calls = 0;  // including memo hits
    double eval_seconds = 0.0;         // wall-clock inside evaluation waves
    std::size_t eval_workers = 1;
    FaultCounters fault;               // attempts == distinct - store_hits + retries
    std::size_t store_hits = 0;        // memo misses answered by the store
    std::size_t store_misses = 0;      // memo misses paid fresh
};

// `count` runs with seeds drawn in order from Rng{seed}, averaged into a
// MultiRunCurve.  `run(seed)` returns one run's curve; a run that found no
// feasible point (an empty curve) is left out.
template <typename RunFn>
MultiRunCurve run_many(const char* who, Direction direction, std::uint64_t seed,
                       std::size_t count, RunFn&& run)
{
    if (count == 0)
        throw std::invalid_argument(std::string{who} + "::run_many: count must be >= 1");
    MultiRunCurve multi{direction};
    Rng seeder{seed};
    for (std::size_t i = 0; i < count; ++i) {
        Curve curve = run(seeder.next_u64());
        if (!curve.empty()) multi.add_run(std::move(curve));
    }
    return multi;
}

// The shell of GA, random search, SA and HC: the validated inputs of a
// search and their accessors.
template <typename Config>
class EngineShell {
public:
    const Config& config() const { return config_; }
    Direction direction() const { return direction_; }
    const HintSet& hints() const { return hints_; }

protected:
    EngineShell(const char* name, const ParameterSpace& space, Config config,
                Direction direction, EvalFn eval, HintSet hints)
        : name_{name},
          space_{space},
          config_{std::move(config)},
          direction_{direction},
          eval_{std::move(eval)},
          hints_{std::move(hints)}
    {
        if (space_.empty())
            throw std::invalid_argument(std::string{name} + ": empty parameter space");
        if (!eval_) throw std::invalid_argument(std::string{name} + ": null evaluation function");
        config_.validate();
        hints_.validate(space_);
    }

    const char* name_;
    const ParameterSpace& space_;
    Config config_;
    Direction direction_;
    EvalFn eval_;
    HintSet hints_;
};

// Random search, SA and HC: run_many over the engine's
// `Curve run(seed, EvalTotals*)`.
template <typename Engine, typename Config>
class BudgetedEngine : public EngineShell<Config> {
public:
    // `count` runs with seeds drawn from config.seed (see run_many above).
    MultiRunCurve run_many(std::size_t count) const
    {
        return nautilus::run_many(this->name_, this->direction_, this->config_.seed, count,
                                  [this](std::uint64_t seed) {
                                      return static_cast<const Engine&>(*this).run(seed, nullptr);
                                  });
    }

protected:
    using EngineShell<Config>::EngineShell;
};

}  // namespace nautilus
