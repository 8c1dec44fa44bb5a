#include "ip/ip_generator.hpp"

#include <gtest/gtest.h>

namespace nautilus::ip {
namespace {

TEST(Metric, NamesRoundTrip)
{
    const Metric all[] = {Metric::area_luts,       Metric::ffs,
                          Metric::brams,           Metric::dsps,
                          Metric::freq_mhz,        Metric::period_ns,
                          Metric::power_mw,        Metric::area_mm2,
                          Metric::throughput_msps, Metric::snr_db,
                          Metric::bisection_gbps,  Metric::area_delay_product,
                          Metric::throughput_per_lut, Metric::latency_ns,
                          Metric::saturation_injection};
    for (Metric m : all) {
        const auto parsed = metric_from_name(metric_name(m));
        ASSERT_TRUE(parsed.has_value()) << metric_name(m);
        EXPECT_EQ(*parsed, m);
        EXPECT_NE(metric_unit(m), nullptr);
    }
    EXPECT_FALSE(metric_from_name("not_a_metric").has_value());
}

TEST(Metric, DefaultDirectionsMakeSense)
{
    EXPECT_EQ(metric_default_direction(Metric::area_luts), Direction::minimize);
    EXPECT_EQ(metric_default_direction(Metric::freq_mhz), Direction::maximize);
    EXPECT_EQ(metric_default_direction(Metric::throughput_per_lut), Direction::maximize);
    EXPECT_EQ(metric_default_direction(Metric::power_mw), Direction::minimize);
}

TEST(MetricValues, SetGetAndOverwrite)
{
    MetricValues mv;
    mv.set(Metric::area_luts, 100.0);
    EXPECT_TRUE(mv.has(Metric::area_luts));
    EXPECT_DOUBLE_EQ(mv.get(Metric::area_luts), 100.0);
    mv.set(Metric::area_luts, 200.0);
    EXPECT_DOUBLE_EQ(mv.get(Metric::area_luts), 200.0);
    EXPECT_EQ(mv.size(), 1u);
}

TEST(MetricValues, MissingMetricThrowsOrReturnsNullopt)
{
    const MetricValues mv;
    EXPECT_THROW(mv.get(Metric::snr_db), std::out_of_range);
    EXPECT_FALSE(mv.try_get(Metric::snr_db).has_value());
}

TEST(MetricValues, InfeasiblePoint)
{
    const MetricValues mv = MetricValues::infeasible_point();
    EXPECT_FALSE(mv.feasible);
    EXPECT_EQ(mv.size(), 0u);
}

TEST(DeriveComposites, PeriodFromFrequency)
{
    MetricValues mv;
    mv.set(Metric::freq_mhz, 250.0);
    derive_composites(mv);
    EXPECT_DOUBLE_EQ(mv.get(Metric::period_ns), 4.0);
}

TEST(DeriveComposites, AreaDelayProduct)
{
    MetricValues mv;
    mv.set(Metric::freq_mhz, 100.0);
    mv.set(Metric::area_luts, 500.0);
    derive_composites(mv);
    EXPECT_DOUBLE_EQ(mv.get(Metric::area_delay_product), 5000.0);
}

TEST(DeriveComposites, ThroughputPerLut)
{
    MetricValues mv;
    mv.set(Metric::throughput_msps, 800.0);
    mv.set(Metric::area_luts, 400.0);
    derive_composites(mv);
    EXPECT_DOUBLE_EQ(mv.get(Metric::throughput_per_lut), 2.0);
}

TEST(DeriveComposites, DoesNotOverwriteExplicitValues)
{
    MetricValues mv;
    mv.set(Metric::freq_mhz, 100.0);
    mv.set(Metric::period_ns, 7.0);  // explicitly characterized
    derive_composites(mv);
    EXPECT_DOUBLE_EQ(mv.get(Metric::period_ns), 7.0);
}

TEST(DeriveComposites, SkipsInfeasibleAndZeroDenominators)
{
    MetricValues infeasible = MetricValues::infeasible_point();
    derive_composites(infeasible);
    EXPECT_EQ(infeasible.size(), 0u);

    MetricValues zero_luts;
    zero_luts.set(Metric::throughput_msps, 10.0);
    zero_luts.set(Metric::area_luts, 0.0);
    derive_composites(zero_luts);
    EXPECT_FALSE(zero_luts.has(Metric::throughput_per_lut));
}

// Minimal generator to exercise the IpGenerator adapters.
class ToyGenerator final : public IpGenerator {
public:
    ToyGenerator()
    {
        space_.add("x", ParamDomain::int_range(0, 9));
    }

    std::string name() const override { return "toy"; }
    const ParameterSpace& space() const override { return space_; }
    std::vector<Metric> metrics() const override
    {
        return {Metric::area_luts, Metric::freq_mhz};
    }
    MetricValues evaluate(const Genome& g) const override
    {
        if (g.gene(0) == 9) return MetricValues::infeasible_point();
        MetricValues mv;
        mv.set(Metric::area_luts, 100.0 + g.gene(0));
        mv.set(Metric::freq_mhz, 200.0 - g.gene(0));
        return mv;
    }

private:
    ParameterSpace space_;
};

TEST(IpGenerator, MetricEvalReturnsRequestedMetric)
{
    const ToyGenerator gen;
    const EvalFn eval = gen.metric_eval(Metric::freq_mhz);
    const Evaluation e = eval(Genome{{3}});
    EXPECT_TRUE(e.feasible);
    EXPECT_DOUBLE_EQ(e.value, 197.0);
}

TEST(IpGenerator, MetricEvalPropagatesInfeasibility)
{
    const ToyGenerator gen;
    const EvalFn eval = gen.metric_eval(Metric::area_luts);
    EXPECT_FALSE(eval(Genome{{9}}).feasible);
}

TEST(IpGenerator, MetricEvalMissingMetricIsInfeasible)
{
    const ToyGenerator gen;
    const EvalFn eval = gen.metric_eval(Metric::snr_db);
    EXPECT_FALSE(eval(Genome{{1}}).feasible);
}

TEST(IpGenerator, DefaultAuthorHintsAreBaseline)
{
    const ToyGenerator gen;
    const HintSet hints = gen.author_hints(Metric::area_luts);
    EXPECT_TRUE(hints.is_baseline());
    EXPECT_NO_THROW(hints.validate(gen.space()));
}

}  // namespace
}  // namespace nautilus::ip
