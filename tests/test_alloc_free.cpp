// Zero-allocation gate for the evaluation hot path (DESIGN.md section 6).
//
// This binary replaces the global operator new with a counting one, so it
// is kept apart from nautilus_tests.  Each test warms its path up, then
// asserts that a further batch of calls allocates nothing: one call on the
// live router and FFT models, a successful guarded call, a memo hit and a
// dataset lookup.  A whole GA run is held to allocations that do not grow
// with its generation count.  Counting allocations, unlike timing them,
// does not depend on host speed.

#include <cstddef>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluator.hpp"
#include "core/fault.hpp"
#include "core/ga.hpp"
#include "core/rng.hpp"
#include "fft/fft_generator.hpp"
#include "ip/dataset.hpp"
#include "noc/router_generator.hpp"

namespace {

// Per thread, so only the calls under test are counted.
thread_local bool t_counting = false;
thread_local std::size_t t_allocations = 0;

void* counted_alloc(std::size_t size)
{
    if (t_counting) ++t_allocations;
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size)
{
    return counted_alloc(size);
}
void* operator new[](std::size_t size)
{
    return counted_alloc(size);
}
void operator delete(void* p) noexcept
{
    std::free(p);
}
void operator delete[](void* p) noexcept
{
    std::free(p);
}
void operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}
void operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace nautilus {
namespace {

using ip::Metric;

// Heap allocations made on this thread by `body`.
template <typename Body>
std::size_t allocations_in(Body&& body)
{
    t_allocations = 0;
    t_counting = true;
    body();
    t_counting = false;
    return t_allocations;
}

std::vector<Genome> random_points(const ParameterSpace& space, std::size_t count)
{
    Rng rng{0xa110c};
    std::vector<Genome> points;
    for (std::size_t i = 0; i < count; ++i) points.push_back(Genome::random(space, rng));
    return points;
}

// Warms `fn` up on `warm`, then counts the allocations of a pass over
// `counted`.  Disjoint sets make a per-point cache (the guard's outcome
// record) show up; equal sets measure memo hits.
std::size_t steady_state_allocations(const EvalFn& fn, std::span<const Genome> warm,
                                     std::span<const Genome> counted)
{
    volatile double sink = 0.0;  // keeps every call observable
    for (const Genome& g : warm) sink = fn(g).value;
    return allocations_in([&] {
        for (const Genome& g : counted) sink = fn(g).value;
    });
}

// Fresh points: warm up on the first half, count the second.
std::size_t fresh_point_allocations(const EvalFn& fn, std::span<const Genome> points)
{
    const std::size_t half = points.size() / 2;
    return steady_state_allocations(fn, points.first(half), points.subspan(half));
}

TEST(AllocationFree, CounterSeesAnAllocation)
{
    const std::size_t n = allocations_in([] {
        int* volatile p = new int{7};  // volatile: the pair cannot be elided
        delete p;
    });
    EXPECT_EQ(n, 1u);
}

TEST(AllocationFree, RouterModelCall)
{
    const noc::RouterGenerator router;
    const std::vector<Genome> points = random_points(router.space(), 500);
    for (const Metric m : router.metrics())
        EXPECT_EQ(fresh_point_allocations(router.metric_eval(m), points), 0u)
            << ip::metric_name(m);
}

TEST(AllocationFree, FftModelCallWithoutSnr)
{
    const fft::FftGenerator fft{synth::FpgaTech::virtex6_lx760t(), /*measure_snr=*/false};
    const std::vector<Genome> points = random_points(fft.space(), 500);
    for (const Metric m : fft.metrics())
        EXPECT_EQ(fresh_point_allocations(fft.metric_eval(m), points), 0u)
            << ip::metric_name(m);
}

TEST(AllocationFree, SuccessfulGuardedCallAddsNothingToTheModel)
{
    const noc::RouterGenerator router;
    const std::vector<Genome> points = random_points(router.space(), 500);
    FaultPolicy policy;
    policy.retry.max_attempts = 3;
    FaultTolerantEvaluator<Evaluation> guard{router.metric_eval(Metric::freq_mhz), policy,
                                             Evaluation{false, 0.0}};
    EvalOutcome outcome;
    const EvalFn guarded = [&](const Genome& g) { return guard.evaluate(g, &outcome); };
    EXPECT_EQ(fresh_point_allocations(guarded, points), 0u);
    EXPECT_EQ(outcome.status, EvalStatus::ok);
    EXPECT_FALSE(guard.outcome_for(points.back()).has_value());
}

TEST(AllocationFree, MemoHit)
{
    const noc::RouterGenerator router;
    const std::vector<Genome> points = random_points(router.space(), 500);
    CachingEvaluator memo{router.metric_eval(Metric::area_luts)};
    const EvalFn cached = [&](const Genome& g) { return memo.evaluate(g); };
    EXPECT_EQ(steady_state_allocations(cached, points, points), 0u);
}

TEST(AllocationFree, DatasetLookupCall)
{
    const fft::FftGenerator fft{synth::FpgaTech::virtex6_lx760t(), /*measure_snr=*/false};
    const ip::Dataset dataset = ip::Dataset::enumerate(fft);
    const std::vector<Genome> points = random_points(fft.space(), 500);
    EXPECT_EQ(fresh_point_allocations(dataset.lookup_eval(Metric::area_luts), points), 0u);
}

// Allocations of one untraced, single-worker router run of `generations`.
std::size_t ga_run_allocations(std::size_t generations)
{
    const noc::RouterGenerator router;
    GaConfig config;
    config.generations = generations;
    const GaEngine engine{router.space(), config, Direction::maximize,
                          router.metric_eval(Metric::freq_mhz),
                          router.author_hints(Metric::freq_mhz)};
    std::size_t distinct = 0;
    const std::size_t n = allocations_in([&] { distinct = engine.run(7).distinct_evals; });
    EXPECT_GT(distinct, generations);  // the memo kept growing throughout
    return n;
}

// Doubling the generations may add only the geometric growth of the run's
// tables (memo rows, history, curve): a generation itself -- evaluate wave,
// statistics, selection, breeding -- allocates nothing.
TEST(AllocationFree, GaRunDoesNotAllocatePerGeneration)
{
    const std::size_t short_run = ga_run_allocations(80);
    const std::size_t long_run = ga_run_allocations(160);
    EXPECT_LE(long_run, short_run + 16) << "80 generations: " << short_run
                                        << " allocations, 160 generations: " << long_run;
}

}  // namespace
}  // namespace nautilus
