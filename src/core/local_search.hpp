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

#include "core/engine_base.hpp"

namespace nautilus {

// Shared fields come from BudgetedConfig (core/engine_base.hpp).  The walks
// are sequential: eval_workers only parallelizes SA's temperature probes.
struct AnnealingConfig : BudgetedConfig {
    AnnealingConfig() { seed = 11; }

    double initial_temperature = 0.0;      // 0 = auto-calibrate from first samples
    double cooling = 0.97;                 // geometric cooling per accepted batch
    std::size_t steps_per_temperature = 10;
    double mutation_rate = 0.4;            // per-gene proposal probability

    void validate() const;
};

class SimulatedAnnealing : public BudgetedEngine<SimulatedAnnealing, AnnealingConfig> {
public:
    SimulatedAnnealing(const ParameterSpace& space, AnnealingConfig config,
                       Direction direction, EvalFn eval, HintSet hints);

    // One annealing run; the curve tracks best-so-far vs distinct evals.
    // The walk stops when the distinct budget or its call cap is spent, or
    // a cancel stops it.  `totals`, when non-null, receives the run's
    // evaluation accounting.
    Curve run(std::uint64_t seed, EvalTotals* totals = nullptr) const;
};

struct HillClimbConfig : BudgetedConfig {
    HillClimbConfig() { seed = 13; }

    // Restart from a random point after this many consecutive non-improving
    // proposals (escapes local optima the greedy walk cannot).
    std::size_t patience = 40;
    double mutation_rate = 0.3;

    void validate() const;
};

class HillClimber : public BudgetedEngine<HillClimber, HillClimbConfig> {
public:
    HillClimber(const ParameterSpace& space, HillClimbConfig config, Direction direction,
                EvalFn eval, HintSet hints);

    // One climb; `totals` as for SimulatedAnnealing::run.
    Curve run(std::uint64_t seed, EvalTotals* totals = nullptr) const;
};

}  // namespace nautilus
