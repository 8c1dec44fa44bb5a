#include "synth/synthesizer.hpp"

#include <gtest/gtest.h>

namespace nautilus::synth {
namespace {

DesignDescriptor simple_design(double luts = 1000.0, double levels = 6.0)
{
    DesignDescriptor d;
    d.config_key = 42;
    d.resources.luts = luts;
    d.resources.ffs = 500.0;
    d.paths = {{"main", levels, 4.0}};
    return d;
}

TEST(Resources, AdditionAccumulatesAllFields)
{
    Resources a;
    a.luts = 10;
    a.ffs = 20;
    a.lutram_bits = 30;
    a.bram_bits = 40;
    a.dsps = 2;
    Resources b = a;
    const Resources sum = a + b;
    EXPECT_DOUBLE_EQ(sum.luts, 20);
    EXPECT_DOUBLE_EQ(sum.ffs, 40);
    EXPECT_DOUBLE_EQ(sum.lutram_bits, 60);
    EXPECT_DOUBLE_EQ(sum.bram_bits, 80);
    EXPECT_DOUBLE_EQ(sum.dsps, 4);
}

TEST(Resources, ScaledMultipliesEverything)
{
    Resources a;
    a.luts = 10;
    a.dsps = 3;
    const Resources s = a.scaled(4.0);
    EXPECT_DOUBLE_EQ(s.luts, 40);
    EXPECT_DOUBLE_EQ(s.dsps, 12);
    EXPECT_THROW(a.scaled(-1.0), std::invalid_argument);
}

TEST(Resources, EquivalentLutsIncludesLutram)
{
    const FpgaTech tech = FpgaTech::virtex6_lx760t();
    Resources r;
    r.luts = 100;
    r.lutram_bits = tech.lutram_bits_per_lut * 10;
    EXPECT_DOUBLE_EQ(r.equivalent_luts(tech), 110.0);
}

TEST(Resources, BramBlocksRoundUp)
{
    const FpgaTech tech = FpgaTech::virtex6_lx760t();
    Resources r;
    r.bram_bits = tech.bram_kbits * 1024.0 + 1.0;
    EXPECT_DOUBLE_EQ(r.bram_blocks(tech), 2.0);
}

TEST(Timing, PathDelayGrowsWithDepth)
{
    const FpgaTech tech = FpgaTech::virtex6_lx760t();
    const TimingPath shallow{"s", 3.0, 4.0};
    const TimingPath deep{"d", 9.0, 4.0};
    EXPECT_LT(path_delay_ns(shallow, tech), path_delay_ns(deep, tech));
}

TEST(Timing, FanoutPenaltyIncreasesDelay)
{
    const FpgaTech tech = FpgaTech::virtex6_lx760t();
    const TimingPath narrow{"n", 5.0, 2.0};
    const TimingPath wide{"w", 5.0, 64.0};
    EXPECT_LT(path_delay_ns(narrow, tech), path_delay_ns(wide, tech));
}

TEST(Timing, CriticalPathIsWorstPath)
{
    const FpgaTech tech = FpgaTech::virtex6_lx760t();
    const std::vector<TimingPath> paths{{"a", 3.0, 4.0}, {"b", 8.0, 4.0}, {"c", 5.0, 4.0}};
    EXPECT_DOUBLE_EQ(critical_path_ns(paths, tech), path_delay_ns(paths[1], tech));
    EXPECT_THROW(critical_path_ns({}, tech), std::invalid_argument);
}

TEST(Timing, FmaxCappedByTechnology)
{
    const FpgaTech tech = FpgaTech::virtex6_lx760t();
    const std::vector<TimingPath> trivial{{"t", 0.0, 1.0}};
    EXPECT_DOUBLE_EQ(fmax_mhz(trivial, tech), tech.max_freq_mhz);
}

TEST(Timing, NegativeLevelsRejected)
{
    const FpgaTech tech = FpgaTech::virtex6_lx760t();
    EXPECT_THROW(path_delay_ns({"bad", -1.0, 4.0}, tech), std::invalid_argument);
}

TEST(Timing, InlinePathSetHoldsCapacityPathsAndRejectsMore)
{
    const FpgaTech tech = FpgaTech::virtex6_lx760t();
    TimingPaths paths;
    for (std::size_t i = 0; i < TimingPaths::capacity; ++i)
        paths.push_back({"p", 2.0 + static_cast<double>(i), 4.0});
    EXPECT_EQ(paths.size(), TimingPaths::capacity);
    EXPECT_DOUBLE_EQ(critical_path_ns(paths, tech),
                     path_delay_ns({"p", 1.0 + TimingPaths::capacity, 4.0}, tech));
    EXPECT_THROW(paths.push_back({"extra", 1.0, 4.0}), std::length_error);
    EXPECT_THROW((TimingPaths{{"a", 1, 4}, {"b", 1, 4}, {"c", 1, 4}, {"d", 1, 4}, {"e", 1, 4}}),
                 std::length_error);
    paths.clear();
    EXPECT_TRUE(paths.empty());
}

TEST(NoiseFactor, DeterministicAndBounded)
{
    for (std::uint64_t key = 0; key < 200; ++key) {
        const double f = noise_factor(key, 7, 0.05);
        EXPECT_GE(f, 0.95);
        EXPECT_LE(f, 1.05);
        EXPECT_DOUBLE_EQ(f, noise_factor(key, 7, 0.05));
    }
}

TEST(NoiseFactor, SaltChangesResult)
{
    EXPECT_NE(noise_factor(1, 2, 0.05), noise_factor(1, 3, 0.05));
}

TEST(NoiseFactor, ZeroAmplitudeIsExact)
{
    EXPECT_DOUBLE_EQ(noise_factor(1, 2, 0.0), 1.0);
}

TEST(NoiseFactor, RejectsBadAmplitude)
{
    EXPECT_THROW(noise_factor(1, 2, -0.1), std::invalid_argument);
    EXPECT_THROW(noise_factor(1, 2, 1.0), std::invalid_argument);
}

TEST(VirtualSynthesizer, ResultsAreDeterministicPerDesign)
{
    const VirtualSynthesizer synth{FpgaTech::virtex6_lx760t()};
    const auto a = synth.synthesize(simple_design());
    const auto b = synth.synthesize(simple_design());
    EXPECT_DOUBLE_EQ(a.luts, b.luts);
    EXPECT_DOUBLE_EQ(a.fmax_mhz, b.fmax_mhz);
}

TEST(VirtualSynthesizer, DifferentKeysGetDifferentNoise)
{
    const VirtualSynthesizer synth{FpgaTech::virtex6_lx760t()};
    DesignDescriptor a = simple_design();
    DesignDescriptor b = simple_design();
    b.config_key = 43;
    EXPECT_NE(synth.synthesize(a).fmax_mhz, synth.synthesize(b).fmax_mhz);
}

TEST(VirtualSynthesizer, PeriodIsInverseOfFmax)
{
    const VirtualSynthesizer synth{FpgaTech::virtex6_lx760t()};
    const auto r = synth.synthesize(simple_design());
    EXPECT_NEAR(r.period_ns * r.fmax_mhz, 1000.0, 1e-6);
}

TEST(VirtualSynthesizer, MoreLutsMoreArea)
{
    const VirtualSynthesizer synth{FpgaTech::virtex6_lx760t(), 0.0, 0.0};
    const auto small = synth.synthesize(simple_design(500.0));
    const auto big = synth.synthesize(simple_design(5000.0));
    EXPECT_LT(small.luts, big.luts);
}

TEST(VirtualSynthesizer, DeeperLogicLowerFmax)
{
    const VirtualSynthesizer synth{FpgaTech::virtex6_lx760t(), 0.0, 0.0};
    const auto fast = synth.synthesize(simple_design(1000.0, 3.0));
    const auto slow = synth.synthesize(simple_design(1000.0, 12.0));
    EXPECT_GT(fast.fmax_mhz, slow.fmax_mhz);
}

TEST(VirtualSynthesizer, ValidatesDescriptor)
{
    const VirtualSynthesizer synth{FpgaTech::virtex6_lx760t()};
    DesignDescriptor no_paths = simple_design();
    no_paths.paths.clear();
    EXPECT_THROW(synth.synthesize(no_paths), std::invalid_argument);
    DesignDescriptor bad_toggle = simple_design();
    bad_toggle.toggle_rate = 2.0;
    EXPECT_THROW(synth.synthesize(bad_toggle), std::invalid_argument);
    DesignDescriptor negative = simple_design();
    negative.resources.luts = -1.0;
    EXPECT_THROW(synth.synthesize(negative), std::invalid_argument);
}

TEST(AsicSynthesizer, ProducesAreaAndPower)
{
    const AsicSynthesizer synth{AsicTech::commercial_65nm()};
    const auto r = synth.synthesize(simple_design(), 1000.0);
    EXPECT_GT(r.area_mm2, 0.0);
    EXPECT_GT(r.power_mw, 0.0);
    EXPECT_GT(r.fmax_mhz, 0.0);
}

TEST(AsicSynthesizer, WiringAddsAreaAndPower)
{
    const AsicSynthesizer synth{AsicTech::commercial_65nm(), 0.0, 0.0};
    const auto dry = synth.synthesize(simple_design(), 0.0);
    const auto wired = synth.synthesize(simple_design(), 50000.0);
    EXPECT_GT(wired.area_mm2, dry.area_mm2);
    EXPECT_GT(wired.power_mw, dry.power_mw);
}

TEST(AsicSynthesizer, HigherToggleRateMorePower)
{
    const AsicSynthesizer synth{AsicTech::commercial_65nm(), 0.0, 0.0};
    DesignDescriptor calm = simple_design();
    calm.toggle_rate = 0.05;
    DesignDescriptor busy = simple_design();
    busy.toggle_rate = 0.45;
    EXPECT_LT(synth.synthesize(calm).power_mw, synth.synthesize(busy).power_mw);
}

TEST(AsicSynthesizer, RejectsNegativeWireLength)
{
    const AsicSynthesizer synth{AsicTech::commercial_65nm()};
    EXPECT_THROW(synth.synthesize(simple_design(), -1.0), std::invalid_argument);
}

TEST(AsicSynthesizer, AsicFasterThanFpgaForSameDesign)
{
    const VirtualSynthesizer fpga{FpgaTech::virtex6_lx760t(), 0.0, 0.0};
    const AsicSynthesizer asic{AsicTech::commercial_65nm(), 0.0, 0.0};
    const auto d = simple_design();
    EXPECT_GT(asic.synthesize(d).fmax_mhz, fpga.synthesize(d).fmax_mhz);
}

}  // namespace
}  // namespace nautilus::synth
