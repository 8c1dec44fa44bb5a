#pragma once
// Fixtures shared by the engine and operator tests: a small space, an
// objective whose optimum is known (every gene at its last value), and
// crossover on copies of two parents.

#include <string>
#include <utility>

#include "core/fitness.hpp"
#include "core/genome.hpp"
#include "core/operators.hpp"
#include "core/parameter.hpp"

namespace nautilus {

// Four integer genes, each in [0, 7].
inline ParameterSpace toy_space()
{
    ParameterSpace space;
    for (int i = 0; i < 4; ++i)
        space.add("p" + std::to_string(i), ParamDomain::int_range(0, 7));
    return space;
}

// Feasible everywhere, valued at the sum of the gene indices.
inline Evaluation sum_eval(const Genome& g)
{
    double v = 0.0;
    for (std::size_t i = 0; i < g.size(); ++i) v += g.gene(i);
    return {true, v};
}

inline std::pair<Genome, Genome> crossed(const Genome& a, const Genome& b, CrossoverKind kind,
                                         Rng& rng)
{
    Genome ca = a;
    Genome cb = b;
    crossover_views(ca.genes_mut(), cb.genes_mut(), kind, rng);
    return {std::move(ca), std::move(cb)};
}

}  // namespace nautilus
