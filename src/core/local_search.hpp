#pragma once
// Local-search comparators: simulated annealing and stochastic hill
// climbing.
//
// The paper positions GAs within a family of stochastic methods (simulated
// annealing has "long been used in physical design automation", section 5).
// These engines share the GA's genome representation, evaluation/cost
// accounting and -- optionally -- the Nautilus hint machinery: the neighbor
// proposal distribution reuses the same hint-aware mutation operator, so
// "guided SA" is a meaningful ablation of guided-GA's population mechanics.

#include <cstdint>
#include <memory>

#include "core/eval_store.hpp"
#include "core/evaluator.hpp"
#include "core/fault.hpp"
#include "core/fitness.hpp"
#include "core/hints.hpp"
#include "core/operators.hpp"
#include "core/run_stats.hpp"
#include "obs/obs.hpp"

namespace nautilus {

struct EvalTotals;  // core/eval_pipeline.hpp

struct AnnealingConfig {
    std::size_t max_distinct_evals = 800;  // same budget axis as the GA benches
    double initial_temperature = 0.0;      // 0 = auto-calibrate from first samples
    double cooling = 0.97;                 // geometric cooling per accepted batch
    std::size_t steps_per_temperature = 10;
    double mutation_rate = 0.4;            // per-gene proposal probability
    std::uint64_t seed = 11;
    // Threads for batched evaluations (temperature probes); the accept/
    // reject walk itself is inherently sequential.  Results are identical
    // for any worker count.
    std::size_t eval_workers = 1;
    // Tracing + metrics (off by default); does not affect the walk.
    obs::Instrumentation obs;
    // Fault tolerance (DESIGN.md section 8); shared semantics with GaConfig.
    FaultPolicy fault;
    Evaluation fault_penalty{false, 0.0};

    // Cross-run persistent evaluation store; same placement and determinism
    // contract as GaConfig::store.
    std::shared_ptr<EvalStore> store;
    std::uint64_t store_namespace = 0;

    void validate() const;
};

class SimulatedAnnealing {
public:
    SimulatedAnnealing(const ParameterSpace& space, AnnealingConfig config,
                       Direction direction, EvalFn eval, HintSet hints);

    // One annealing run; the curve tracks best-so-far vs distinct evals.
    // `totals`, when non-null, receives the run's evaluation accounting.
    Curve run(std::uint64_t seed, EvalTotals* totals = nullptr) const;
    MultiRunCurve run_many(std::size_t count) const;

private:
    const ParameterSpace& space_;
    AnnealingConfig config_;
    Direction direction_;
    EvalFn eval_;
    HintSet hints_;
};

struct HillClimbConfig {
    std::size_t max_distinct_evals = 800;
    // Restart from a random point after this many consecutive non-improving
    // proposals (escapes local optima the greedy walk cannot).
    std::size_t patience = 40;
    double mutation_rate = 0.3;
    std::uint64_t seed = 13;
    // Threads for the shared evaluation pipeline; the greedy walk evaluates
    // one candidate at a time, so this mainly standardizes accounting.
    std::size_t eval_workers = 1;
    // Tracing + metrics (off by default); does not affect the walk.
    obs::Instrumentation obs;
    // Fault tolerance (DESIGN.md section 8); shared semantics with GaConfig.
    FaultPolicy fault;
    Evaluation fault_penalty{false, 0.0};

    // Cross-run persistent evaluation store; same placement and determinism
    // contract as GaConfig::store.
    std::shared_ptr<EvalStore> store;
    std::uint64_t store_namespace = 0;

    void validate() const;
};

class HillClimber {
public:
    HillClimber(const ParameterSpace& space, HillClimbConfig config, Direction direction,
                EvalFn eval, HintSet hints);

    // One climb; `totals` as for SimulatedAnnealing::run.
    Curve run(std::uint64_t seed, EvalTotals* totals = nullptr) const;
    MultiRunCurve run_many(std::size_t count) const;

private:
    const ParameterSpace& space_;
    HillClimbConfig config_;
    Direction direction_;
    EvalFn eval_;
    HintSet hints_;
};

}  // namespace nautilus
