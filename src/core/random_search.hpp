#pragma once
// Random-sampling baseline.
//
// The paper's footnote 3 contrasts the GA with naive random sampling ("it
// would take on average 11,921 synthesis runs to find a design meeting this
// goal").  RandomSearch draws uniform design points without guidance and
// tracks the same best-so-far-vs-distinct-evaluations curve, so it plugs into
// the same experiment harness.

#include <cstdint>

#include "core/engine_base.hpp"

namespace nautilus {

// Shared fields come from BudgetedConfig (core/engine_base.hpp).  The draw
// sequence and result curve are identical for any worker count.
struct RandomSearchConfig : BudgetedConfig {
    RandomSearchConfig() { seed = 7; }

    void validate() const;  // throws std::invalid_argument on bad settings
};

class RandomSearch : public BudgetedEngine<RandomSearch, RandomSearchConfig> {
public:
    RandomSearch(const ParameterSpace& space, RandomSearchConfig config, Direction direction,
                 EvalFn eval);

    // One run: draw uniformly until the distinct-evaluation budget or its
    // call cap is spent, or a cancel stops it.  `totals`, when non-null,
    // receives the run's evaluation accounting.
    Curve run(std::uint64_t seed, EvalTotals* totals = nullptr) const;

    // Expected number of uniform draws (with replacement) until hitting a
    // subset of probability `hit_probability`: 1/p.  Used to report the
    // analytic footnote-3 style number.
    static double expected_draws(double hit_probability);
};

}  // namespace nautilus
