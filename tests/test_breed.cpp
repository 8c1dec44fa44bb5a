#include "core/breed.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/ga.hpp"
#include "fixtures.hpp"

namespace nautilus {
namespace {

// Varied cardinalities, a single-value domain (mutation must skip it) and an
// unordered categorical (bias/target do not apply).
ParameterSpace mixed_space()
{
    ParameterSpace space;
    space.add("width", ParamDomain::int_range(0, 15));
    space.add("depth", ParamDomain::pow2(0, 6));
    space.add("flag", ParamDomain::boolean());
    space.add("algo", ParamDomain::categorical({"rr", "greedy", "ilp"}));
    space.add("fixed", ParamDomain::int_range(5, 5));
    return space;
}

// Exercises every hint channel: importance + decay, bias, target, step_scale.
HintSet guided_hints(const ParameterSpace& space)
{
    HintSet hints = HintSet::none(space);
    hints.set_confidence(0.7);
    hints.param(0).importance = 40.0;
    hints.param(0).importance_decay = 0.9;
    hints.param(0).bias = 0.8;
    hints.param(1).importance = 10.0;
    hints.param(1).target = 6.0;
    hints.param(1).step_scale = 0.3;
    if (space.size() > 4) hints.param(2).importance = 5.0;
    hints.validate(space);
    return hints;
}

std::vector<Genome> random_population(const ParameterSpace& space, std::size_t n, Rng& rng)
{
    std::vector<Genome> population;
    population.reserve(n);
    for (std::size_t i = 0; i < n; ++i) population.push_back(Genome::random(space, rng));
    return population;
}

std::vector<double> random_fitness(std::size_t n, Rng& rng, bool with_infeasible)
{
    std::vector<double> fitness(n);
    for (auto& f : fitness) {
        f = rng.uniform() * 100.0;
        if (with_infeasible && rng.bernoulli(0.25))
            f = -std::numeric_limits<double>::infinity();
    }
    return fitness;
}

// ---------------------------------------------------------------------------
// Golden digests.  Each breeding operator has exactly one implementation, so
// its output is pinned absolutely: an FNV-1a digest of everything a
// configuration produced (genes, stats, birth provenance, distributions and
// the final RNG state) is compared with a committed table.  The tables were
// captured while the per-call reference operators still existed and agreed
// draw for draw with these paths.  A deliberate behaviour change regenerates
// a table from the failure message and records it in CHANGES.md
// (DESIGN.md section 10).

// FNV-1a over 64-bit words, fed byte by byte in little-endian order.
class Digest {
public:
    Digest& u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) h_ = (h_ ^ ((v >> (8 * i)) & 0xffu)) * 0x100000001b3ull;
        return *this;
    }
    Digest& f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }
    template <typename T>
    Digest& seq(std::span<const T> values)
    {
        u64(values.size());
        for (const T v : values) u64(static_cast<std::uint64_t>(v));
        return *this;
    }
    Digest& genes(std::span<const std::uint32_t> genes) { return seq(genes); }
    Digest& rng(const Rng& rng)
    {
        for (const std::uint64_t word : rng.state()) u64(word);
        return *this;
    }
    Digest& stats(const MutationStats& s)
    {
        return u64(s.genomes).u64(s.genes_mutated).u64(s.bias_draws).u64(s.target_draws).u64(
            s.uniform_draws);
    }
    std::uint64_t value() const { return h_; }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// Labelled digests in table order; labels only name the failing entries.
using FreshDigests = std::vector<std::pair<std::string, std::uint64_t>>;

// On any difference, names the changed entries and prints the whole fresh
// table in the source form that accepts it.
void expect_golden(std::span<const std::uint64_t> golden, const FreshDigests& fresh)
{
    std::ostringstream changed, table;
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        if (i >= golden.size() || golden[i] != fresh[i].second)
            changed << ' ' << fresh[i].first;
        char word[32];
        std::snprintf(word, sizeof word, "0x%016llxull,",
                      static_cast<unsigned long long>(fresh[i].second));
        table << (i % 3 == 0 ? "\n    " : " ") << word;
    }
    if (changed.str().empty() && golden.size() == fresh.size()) return;
    ADD_FAILURE() << "digests differ from the golden table:" << changed.str()
                  << "\nIf the change is intended, replace the table with:" << table.str();
}

// ---------------------------------------------------------------------------
// SelectionTable: the pick sequence and RNG consumption per configuration.

const std::uint64_t k_selection_golden[] = {
    0xa8642791846e69f6ull, 0x652363f3c47b82c3ull, 0x101264085f8287d1ull,
    0x8505ae6fa91c45c0ull, 0x967bb3193f47980bull,
};

TEST(SelectionTable, MatchesGoldenDrawSequence)
{
    const SelectionConfig configs[] = {
        {SelectionKind::rank, 1.8, 2},
        {SelectionKind::rank, 1.0, 2},
        {SelectionKind::tournament, 1.8, 2},
        {SelectionKind::tournament, 1.8, 5},
        {SelectionKind::roulette, 1.8, 2},
    };
    Rng setup{2024};
    FreshDigests fresh;
    for (const auto& config : configs) {
        Digest d;
        for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{10}}) {
            for (const bool infeasible : {false, true}) {
                const auto fitness = random_fitness(n, setup, infeasible);
                SelectionTable table;
                table.rebuild(fitness, config);
                Rng rng{77};
                for (int pick = 0; pick < 500; ++pick) d.u64(table.select(rng));
                d.rng(rng);
            }
        }
        fresh.emplace_back("config" + std::to_string(fresh.size()), d.value());
    }
    expect_golden(k_selection_golden, fresh);
}

TEST(SelectionTable, AllInfeasibleRouletteFallsBackToUniform)
{
    // Each pick is exactly one uniform index draw.
    const std::vector<double> fitness(6, -std::numeric_limits<double>::infinity());
    SelectionTable table;
    table.rebuild(fitness, {SelectionKind::roulette, 1.8, 2});
    Rng uniform_rng{5}, table_rng{5};
    for (int pick = 0; pick < 200; ++pick)
        EXPECT_EQ(uniform_rng.index(fitness.size()), table.select(table_rng));
    EXPECT_EQ(uniform_rng.state(), table_rng.state());
}

TEST(SelectionTable, RankWithOneMemberConsumesNoRng)
{
    const std::vector<double> fitness{3.0};
    SelectionTable table;
    table.rebuild(fitness, {SelectionKind::rank, 1.8, 2});
    Rng rng{9};
    const auto before = rng.state();
    EXPECT_EQ(table.select(rng), 0u);
    EXPECT_EQ(rng.state(), before);
}

TEST(SelectionTable, ValidatesLikeSelectParent)
{
    SelectionTable table;
    EXPECT_THROW(table.rebuild({}, {SelectionKind::rank, 1.8, 2}), std::invalid_argument);
    const std::vector<double> fitness{1.0, 2.0};
    EXPECT_THROW(table.rebuild(fitness, {SelectionKind::rank, 2.5, 2}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// crossover_views: children, exchanged-gene masks and RNG consumption.

const std::uint64_t k_crossover_golden[] = {
    0xe3f487a8aa537bc7ull, 0x9de43e2886ff36aeull, 0x78e3829565d496d0ull,
};

TEST(CrossoverViews, MatchesGoldenDigests)
{
    const auto space = mixed_space();
    Rng setup{31};
    FreshDigests fresh;
    for (const auto kind :
         {CrossoverKind::single_point, CrossoverKind::two_point, CrossoverKind::uniform}) {
        Digest d;
        for (int round = 0; round < 100; ++round) {
            std::vector<std::uint32_t> a = Genome::random(space, setup).genes();
            std::vector<std::uint32_t> b = Genome::random(space, setup).genes();
            std::vector<std::uint8_t> swapped;
            Rng rng{static_cast<std::uint64_t>(round + 1)};
            crossover_views(a, b, kind, rng, round % 2 == 0 ? &swapped : nullptr);
            d.genes(a).genes(b).rng(rng);
            for (const std::uint8_t s : swapped) d.u64(s);
        }
        fresh.emplace_back(crossover_name(kind), d.value());
    }
    expect_golden(k_crossover_golden, fresh);
}

// ---------------------------------------------------------------------------
// BreedContext::mutate: genes, change counts, draw-class stats, origins and
// RNG consumption across generations and hint shapes.

const std::uint64_t k_mutate_golden[] = {
    0x1dd90a45bf463d69ull, 0x7edff895aef80b57ull, 0x17135def39b0bdeeull,
    0xc79ed823327d5b42ull, 0xde25da15d08529f5ull, 0x499452fd185f2aadull,
    0x23e0053be2b8c662ull, 0x1c400a39e5184166ull, 0xae961125ad617678ull,
    0x68696ae428f3eec8ull, 0x9833f5cf3957559full, 0x318830d2ea911e45ull,
};

TEST(BreedContextMutate, MatchesGoldenDigestsAcrossGenerations)
{
    FreshDigests fresh;
    for (const bool use_mixed : {false, true}) {
        const auto space = use_mixed ? mixed_space() : toy_space();
        for (const bool guided : {false, true}) {
            const HintSet hints = guided ? guided_hints(space) : HintSet::none(space);
            BreedContext ctx{space, hints, 0.35};
            for (const std::size_t gen : {std::size_t{0}, std::size_t{1}, std::size_t{7}}) {
                ctx.begin_generation(gen);
                MutationStats stats;
                Rng setup{gen * 1000 + (guided ? 1 : 0) + (use_mixed ? 2 : 0) + 5};
                Rng rng{404};
                Digest d;
                std::vector<obs::GeneOrigin> origins(space.size());
                for (int round = 0; round < 200; ++round) {
                    Genome g = Genome::random(space, setup);
                    std::fill(origins.begin(), origins.end(), obs::GeneOrigin::parent_a);
                    d.u64(ctx.mutate(g, rng, &stats, origins.data()));
                    d.genes(g.genes()).seq<obs::GeneOrigin>(origins);
                }
                d.stats(stats).rng(rng);
                fresh.emplace_back(std::string{use_mixed ? "mixed" : "toy"} +
                                       (guided ? "_guided_g" : "_none_g") +
                                       std::to_string(gen),
                                   d.value());
            }
        }
    }
    expect_golden(k_mutate_golden, fresh);
}

TEST(BreedContextMutate, RejectsIncompatibleGenome)
{
    const auto space = toy_space();
    const HintSet hints = HintSet::none(space);
    BreedContext ctx{space, hints, 0.1};
    Rng rng{1};
    Genome wrong{std::vector<std::uint32_t>{0, 0}};
    EXPECT_THROW(ctx.mutate(wrong, rng), std::invalid_argument);
}

TEST(BreedContext, HoistedProbsMatchPerCallComputation)
{
    const auto space = mixed_space();
    const HintSet hints = guided_hints(space);
    BreedContext ctx{space, hints, 0.2};
    for (const std::size_t gen : {std::size_t{0}, std::size_t{3}, std::size_t{11}}) {
        ctx.begin_generation(gen);
        const auto want = gene_mutation_probabilities(space, hints, 0.2, gen);
        const auto got = ctx.gene_probs();
        ASSERT_EQ(want.size(), got.size());
        for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(want[i], got[i]);
    }
}

TEST(BreedContext, MemoizedDistributionIsBitIdenticalToFresh)
{
    const auto space = mixed_space();
    const HintSet hints = guided_hints(space);
    BreedContext ctx{space, hints, 0.2};

    // Two passes: the first fills the memo (misses), the second must hit it
    // and still return the bit-identical distribution.
    for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t p = 0; p < space.size(); ++p) {
            const std::size_t card = space[p].domain.cardinality();
            if (card < 2) continue;  // mutation never asks for these
            for (std::uint32_t current = 0; current < card; ++current) {
                const auto want =
                    value_distribution(space[p].domain, hints.param(p), hints.confidence(),
                                       current);
                const auto& got = ctx.distribution(p, current);
                ASSERT_EQ(want, got) << "param=" << p << " current=" << current;
            }
        }
    }
    EXPECT_GT(ctx.dist_memo_hits(), 0u);
    EXPECT_GT(ctx.dist_memo_misses(), 0u);
}

// The shared mutation kernel, bit for bit: value_distribution over every
// guided hint shape x confidence x current value, and the hoisted per-gene
// probabilities across generations.  Every GA, NSGA-II and local-search run
// draws through these numbers.

const std::uint64_t k_kernel_golden[] = {
    0xb925ed92184bfc25ull, 0xff1ed21caf088187ull, 0x125549e0c489e72dull,
    0x69f7c57bc3051fa3ull, 0x1b0f58b9935e935aull, 0x28e9d238d762fa5eull,
    0x3a24e8e295ac1314ull, 0x6ece575990a66248ull, 0x708b990c3d5b3fbaull,
    0xb3b643e3c13e803cull, 0x380d13e540cc4885ull,
};

TEST(BreedContext, KernelMatchesGoldenDigests)
{
    struct Shape {
        const char* name;
        ParamHints hints;
    };
    const auto hint = [](std::optional<double> bias, std::optional<double> target,
                         std::optional<double> step_scale) {
        ParamHints h;
        h.bias = bias;
        h.target = target;
        h.step_scale = step_scale;
        return h;
    };
    const Shape shapes[] = {
        {"dist_none", {}},
        {"dist_bias_up", hint(0.8, {}, {})},
        {"dist_bias_down", hint(-0.6, {}, {})},
        {"dist_bias_full_short", hint(1.0, {}, 0.1)},
        {"dist_bias_weak_long", hint(0.25, {}, 1.0)},
        {"dist_target_mid", hint({}, 6.0, {})},
        {"dist_target_edge_short", hint({}, 0.0, 0.2)},
        {"dist_target_long", hint({}, 12.0, 0.9)},
    };
    const ParamDomain domains[] = {
        ParamDomain::int_range(0, 15), ParamDomain::pow2(0, 6), ParamDomain::int_range(0, 2),
        ParamDomain::boolean(), ParamDomain::categorical({"rr", "greedy", "ilp"}),
    };
    FreshDigests fresh;
    for (const Shape& shape : shapes) {
        Digest d;
        for (const ParamDomain& domain : domains)
            for (const double confidence : {0.0, 0.3, 0.7, 1.0})
                for (std::uint32_t current = 0; current < domain.cardinality(); ++current)
                    for (const double w :
                         value_distribution(domain, shape.hints, confidence, current))
                        d.f64(w);
        fresh.emplace_back(shape.name, d.value());
    }
    for (const bool use_mixed : {false, true}) {
        const auto space = use_mixed ? mixed_space() : toy_space();
        for (const bool guided : {true, false}) {
            if (!use_mixed && !guided) continue;
            const HintSet hints = guided ? guided_hints(space) : HintSet::none(space);
            BreedContext ctx{space, hints, 0.25};
            Digest d;
            for (std::size_t gen = 0; gen < 30; ++gen) {
                ctx.begin_generation(gen);
                for (const double p : ctx.gene_probs()) d.f64(p);
            }
            fresh.emplace_back(std::string{"probs_"} + (use_mixed ? "mixed" : "toy") +
                                   (guided ? "_guided" : "_none"),
                               d.value());
        }
    }
    expect_golden(k_kernel_golden, fresh);
}

// ---------------------------------------------------------------------------
// BreedContext::breed: the whole breed phase with births recorded.

const std::uint64_t k_breed_golden[] = {
    0x874283c83041a6f9ull, 0xcdfd59e54a2f41e9ull, 0xd911d75417c29af1ull,
    0xaaddc230554b129aull, 0xc20d374626f34360ull, 0x9a7f5ae6339509f8ull,
    0x4d43a8e3a6476a3dull, 0xc089344b0d46f34eull, 0xcb624d201ce0b661ull,
    0xc7ea65ebd6a8ed70ull, 0x7ce363fbecab2bdaull, 0xc639c73105d75865ull,
    0xf502fa60b28537eaull, 0x254c455e97ab1f9full, 0x7bb6caeb81310051ull,
    0xfd318dfdfb158de7ull, 0x9b7af9af9b47aa47ull, 0x95ca2b77d357c124ull,
    0x16a006a28ed2fcf4ull, 0x3e9dc50d605ff0b3ull, 0x6130ecd58dd8a99bull,
    0xc01cc5d90c88a6f8ull, 0xd7d80835cb1cc1b5ull, 0xd802738e2aee1fb6ull,
    0xd95744c1fe8fefe0ull, 0x7174a7d2820c37f1ull, 0xa702fd26fedb5784ull,
    0xe65e584786ac4fb3ull, 0x1faa3a8a05e4ccd1ull, 0x3892f1511f7d952aull,
    0x6cf429cb69e0538dull, 0x1ee97e7246891b3bull, 0xaa9b3a683b514e1bull,
    0x26d86d63c9562bebull, 0x1afb1921e179e229ull, 0x1ea9c5bec7e11dd8ull,
};

TEST(BreedPhase, MatchesGoldenDigests)
{
    const auto space = mixed_space();
    Rng setup{808};
    FreshDigests fresh;
    for (const bool guided : {false, true}) {
        const HintSet hints = guided ? guided_hints(space) : HintSet::none(space);
        for (const auto kind :
             {SelectionKind::rank, SelectionKind::tournament, SelectionKind::roulette}) {
            for (const auto cross : {CrossoverKind::single_point, CrossoverKind::two_point,
                                     CrossoverKind::uniform}) {
                for (const std::size_t pop_size : {std::size_t{9}, std::size_t{10}}) {
                    BreedConfig config;
                    config.selection = {kind, 1.8, 3};
                    config.crossover = cross;
                    config.crossover_rate = 0.85;
                    config.elitism = 2;
                    config.population_size = pop_size;

                    auto population = random_population(space, pop_size, setup);
                    const auto fitness = random_fitness(pop_size, setup, true);

                    BreedContext ctx{space, hints, 0.3};
                    BirthLog births;
                    Rng rng{99};
                    Digest d;
                    for (std::size_t gen = 0; gen < 5; ++gen) {
                        ctx.begin_generation(gen);
                        const BreedStats stats =
                            ctx.breed(population, fitness, config, rng, true, &births);
                        for (const Genome& g : population) d.genes(g.genes());
                        d.u64(stats.crossovers).stats(stats.mutation);
                        d.u64(births.elites.size());
                        for (const std::uint32_t e : births.elites) d.u64(e);
                        d.u64(births.children.size());
                        for (const ChildProvenance& c : births.children)
                            d.u64(c.parent_a).u64(c.parent_b).u64(c.crossed).seq<obs::GeneOrigin>(
                                c.origins);
                    }
                    d.rng(rng);
                    fresh.emplace_back(std::string{guided ? "guided_" : "none_"} +
                                           selection_name(kind) + "_" + crossover_name(cross) +
                                           "_" + std::to_string(pop_size),
                                       d.value());
                }
            }
        }
    }
    expect_golden(k_breed_golden, fresh);
}

TEST(BreedPhase, ValidatesInputs)
{
    const auto space = toy_space();
    const HintSet hints = HintSet::none(space);
    BreedContext ctx{space, hints, 0.1};
    Rng rng{1};
    BreedConfig config;
    config.population_size = 4;
    config.elitism = 4;
    auto population = random_population(space, 4, rng);
    const std::vector<double> fitness(4, 1.0);
    EXPECT_THROW(ctx.breed(population, fitness, config, rng, false), std::invalid_argument);
    config.elitism = 1;
    config.population_size = 5;
    EXPECT_THROW(ctx.breed(population, fitness, config, rng, false), std::invalid_argument);
    // A fitness vector longer than the population would let selection pick
    // rows the parent matrix does not have.
    config.population_size = 4;
    config.selection.kind = SelectionKind::tournament;
    const std::vector<double> long_fitness(40, 1.0);
    EXPECT_THROW(ctx.breed(population, long_fitness, config, rng, false),
                 std::invalid_argument);
    const std::vector<double> short_fitness(3, 1.0);
    EXPECT_THROW(ctx.breed(population, short_fitness, config, rng, false),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Whole GA runs: history, best point, final population and RNG state per
// selection kind, guided and unguided.  Evaluation workers must not change a
// bit.

std::uint64_t run_digest(const RunResult& r)
{
    Digest d;
    d.u64(r.history.size());
    for (const GenerationStats& s : r.history)
        d.f64(s.best).f64(s.mean).f64(s.worst).u64(s.feasible).f64(s.best_so_far).u64(
            s.distinct_evals);
    d.genes(r.best_genome.genes()).f64(r.best_eval.value).u64(r.distinct_evals);
    d.u64(r.final_population.size());
    for (const Genome& g : r.final_population) d.genes(g.genes());
    for (const std::uint64_t word : r.final_rng_state) d.u64(word);
    return d.value();
}

const std::uint64_t k_run_golden[] = {
    0xc9698bd57e880917ull, 0x3eeea5d64d63b62dull, 0x08c489edb4bfbd7cull,
    0x0f4b5a24ef7cde3eull, 0x58a4bb9c0cdb2480ull, 0xc2f89337f143b113ull,
};

TEST(GaEngine, RunResultsMatchGoldenDigests)
{
    const auto space = toy_space();
    FreshDigests fresh;
    for (const bool guided : {false, true}) {
        const HintSet hints = guided ? guided_hints(space) : HintSet::none(space);
        for (const auto kind :
             {SelectionKind::rank, SelectionKind::tournament, SelectionKind::roulette}) {
            GaConfig cfg;
            cfg.population_size = 8;
            cfg.generations = 25;
            cfg.selection.kind = kind;
            cfg.seed = 7;
            const GaEngine engine{space, cfg, Direction::maximize, sum_eval, hints};
            fresh.emplace_back(std::string{guided ? "guided_" : "none_"} +
                                   selection_name(kind),
                               run_digest(engine.run()));
        }
    }
    expect_golden(k_run_golden, fresh);
}

const std::uint64_t k_parallel_run_golden[] = {
    0x3cff8e89f2a5db79ull, 0x3cff8e89f2a5db79ull,
};

TEST(GaEngine, RunResultsMatchGoldenDigestsWithParallelEval)
{
    const auto space = toy_space();
    const HintSet hints = guided_hints(space);
    FreshDigests fresh;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        GaConfig cfg;
        cfg.population_size = 10;
        cfg.generations = 20;
        cfg.eval_workers = workers;
        cfg.seed = 13;
        const GaEngine engine{space, cfg, Direction::maximize, sum_eval, hints};
        fresh.emplace_back("guided_roulette_w" + std::to_string(workers),
                           run_digest(engine.run()));
    }
    expect_golden(k_parallel_run_golden, fresh);
}

// ---------------------------------------------------------------------------
// DiversityCounter vs the O(pop^2) pairwise definition.

double brute_force_diversity(const std::vector<Genome>& population)
{
    if (population.size() < 2) return 0.0;
    const std::size_t genes = population.front().genes().size();
    if (genes == 0) return 0.0;
    double total = 0.0;
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < population.size(); ++i) {
        for (std::size_t j = i + 1; j < population.size(); ++j) {
            std::size_t differing = 0;
            for (std::size_t g = 0; g < genes; ++g)
                if (population[i].genes()[g] != population[j].genes()[g]) ++differing;
            total += static_cast<double>(differing) / static_cast<double>(genes);
            ++pairs;
        }
    }
    return total / static_cast<double>(pairs);
}

TEST(DiversityCounter, MatchesPairwiseDefinition)
{
    const auto space = mixed_space();
    Rng rng{606};
    DiversityCounter counter;
    for (const std::size_t n : {std::size_t{2}, std::size_t{3}, std::size_t{10},
                                std::size_t{33}}) {
        const auto population = random_population(space, n, rng);
        EXPECT_NEAR(counter.measure(population), brute_force_diversity(population), 1e-12)
            << "n=" << n;
    }
}

TEST(DiversityCounter, EdgeCases)
{
    const auto space = toy_space();
    DiversityCounter counter;
    EXPECT_EQ(counter.measure({}), 0.0);

    Rng rng{3};
    const auto one = random_population(space, 1, rng);
    EXPECT_EQ(counter.measure(one), 0.0);

    std::vector<Genome> clones(5, Genome{std::vector<std::uint32_t>{1, 2, 3, 4}});
    EXPECT_EQ(counter.measure(clones), 0.0);

    std::vector<Genome> distinct{Genome{std::vector<std::uint32_t>{0, 0, 0, 0}},
                                 Genome{std::vector<std::uint32_t>{1, 1, 1, 1}},
                                 Genome{std::vector<std::uint32_t>{2, 2, 2, 2}}};
    EXPECT_EQ(counter.measure(distinct), 1.0);
}

TEST(DiversityCounter, IncrementalAddMatchesOneShot)
{
    const auto space = mixed_space();
    Rng rng{71};
    const auto population = random_population(space, 12, rng);

    DiversityCounter one_shot;
    const double want = one_shot.measure(population);

    DiversityCounter incremental;
    incremental.reset(space.size());
    for (const auto& g : population) incremental.add(g);
    EXPECT_EQ(incremental.value(), want);
}

}  // namespace
}  // namespace nautilus
