#include "ip/dataset.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>

namespace nautilus::ip {
namespace {

// 40-point space with deterministic metrics and a small infeasible region.
class GridGenerator final : public IpGenerator {
public:
    GridGenerator()
    {
        space_.add("x", ParamDomain::int_range(0, 9));
        space_.add("y", ParamDomain::int_range(0, 3));
    }

    std::string name() const override { return "grid"; }
    const ParameterSpace& space() const override { return space_; }
    std::vector<Metric> metrics() const override
    {
        return {Metric::area_luts, Metric::freq_mhz};
    }
    MetricValues evaluate(const Genome& g) const override
    {
        if (g.gene(0) == 0 && g.gene(1) == 0) return MetricValues::infeasible_point();
        MetricValues mv;
        mv.set(Metric::area_luts, 10.0 * g.gene(0) + g.gene(1));
        mv.set(Metric::freq_mhz, 100.0 + g.gene(0) - g.gene(1));
        return mv;
    }

private:
    ParameterSpace space_;
};

TEST(Dataset, EnumerateCoversFullSpace)
{
    const GridGenerator gen;
    const Dataset ds = Dataset::enumerate(gen);
    EXPECT_EQ(ds.size(), 40u);
    EXPECT_EQ(ds.feasible_count(), 39u);
}

TEST(Dataset, EnumerateRefusesHugeSpaces)
{
    const GridGenerator gen;
    EXPECT_THROW(Dataset::enumerate(gen, 10), std::invalid_argument);
}

TEST(Dataset, SampleDrawsDistinctPoints)
{
    const GridGenerator gen;
    const Dataset ds = Dataset::sample(gen, 20, 1);
    EXPECT_EQ(ds.size(), 20u);
    std::set<std::uint64_t> keys;
    for (const auto& e : ds) keys.insert(e.genome.key());
    EXPECT_EQ(keys.size(), 20u);
}

// De-duplication compares whole genomes, not 64-bit keys: asking for the
// whole space returns every point exactly once.
TEST(Dataset, SampleOfTheWholeSpaceYieldsEveryPointOnce)
{
    const GridGenerator gen;
    const Dataset ds = Dataset::sample(gen, 40, 3);
    ASSERT_EQ(ds.size(), 40u);
    std::vector<int> seen(40, 0);
    for (const auto& e : ds) ++seen[e.genome.to_rank(gen.space())];
    for (std::size_t rank = 0; rank < seen.size(); ++rank) EXPECT_EQ(seen[rank], 1) << rank;
}

TEST(Dataset, SampleRejectsOversizedRequest)
{
    const GridGenerator gen;
    EXPECT_THROW(Dataset::sample(gen, 41, 1), std::invalid_argument);
}

TEST(Dataset, BestFindsExtremes)
{
    const GridGenerator gen;
    const Dataset ds = Dataset::enumerate(gen);
    EXPECT_DOUBLE_EQ(ds.best(Metric::area_luts, Direction::minimize), 1.0);   // x=0,y=1
    EXPECT_DOUBLE_EQ(ds.best(Metric::area_luts, Direction::maximize), 93.0);  // x=9,y=3
    EXPECT_DOUBLE_EQ(ds.best(Metric::freq_mhz, Direction::maximize), 109.0);
}

TEST(Dataset, BestEntryMatchesBestValue)
{
    const GridGenerator gen;
    const Dataset ds = Dataset::enumerate(gen);
    const DatasetEntry& e = ds.best_entry(Metric::freq_mhz, Direction::maximize);
    EXPECT_DOUBLE_EQ(e.values.get(Metric::freq_mhz), 109.0);
    EXPECT_EQ(e.genome.gene(0), 9u);
    EXPECT_EQ(e.genome.gene(1), 0u);
}

TEST(Dataset, PercentileThreshold)
{
    const GridGenerator gen;
    const Dataset ds = Dataset::enumerate(gen);
    // Top ~2.5% of the 39 feasible points by minimal area = the single best.
    const double top = ds.percentile_threshold(Metric::area_luts, Direction::minimize, 0.02);
    EXPECT_DOUBLE_EQ(top, 1.0);
    // Top 100% = the worst value.
    EXPECT_DOUBLE_EQ(ds.percentile_threshold(Metric::area_luts, Direction::minimize, 1.0),
                     93.0);
    EXPECT_THROW(ds.percentile_threshold(Metric::area_luts, Direction::minimize, 0.0),
                 std::invalid_argument);
}

TEST(Dataset, QualityPercentBounds)
{
    const GridGenerator gen;
    const Dataset ds = Dataset::enumerate(gen);
    EXPECT_DOUBLE_EQ(ds.quality_percent(Metric::area_luts, Direction::minimize, 1.0), 100.0);
    EXPECT_NEAR(ds.quality_percent(Metric::area_luts, Direction::minimize, 0.5), 100.0,
                1e-9);
    EXPECT_DOUBLE_EQ(ds.quality_percent(Metric::area_luts, Direction::minimize, 1000.0),
                     0.0);
}

TEST(Dataset, QualityPercentIsMonotone)
{
    const GridGenerator gen;
    const Dataset ds = Dataset::enumerate(gen);
    double prev = 101.0;
    for (double v : {1.0, 11.0, 51.0, 93.0}) {
        const double q = ds.quality_percent(Metric::area_luts, Direction::minimize, v);
        EXPECT_LT(q, prev);
        prev = q;
    }
}

TEST(Dataset, HitFraction)
{
    const GridGenerator gen;
    const Dataset ds = Dataset::enumerate(gen);
    // Exactly one feasible point has area <= 1.
    EXPECT_NEAR(ds.hit_fraction(Metric::area_luts, Direction::minimize, 1.0), 1.0 / 39.0,
                1e-12);
    // Everything qualifies at the loosest threshold.
    EXPECT_DOUBLE_EQ(ds.hit_fraction(Metric::area_luts, Direction::minimize, 93.0), 1.0);
}

TEST(Dataset, LookupEvalServesStoredValues)
{
    const GridGenerator gen;
    const Dataset ds = Dataset::enumerate(gen);
    const EvalFn eval = ds.lookup_eval(Metric::area_luts);
    const Evaluation e = eval(Genome{{3, 2}});
    EXPECT_TRUE(e.feasible);
    EXPECT_DOUBLE_EQ(e.value, 32.0);
    EXPECT_FALSE(eval(Genome{{0, 0}}).feasible);  // stored infeasible point
}

TEST(Dataset, LookupEvalFallsBackForMissingGenomes)
{
    const GridGenerator gen;
    const Dataset partial = Dataset::sample(gen, 5, 2);
    int fallback_calls = 0;
    const EvalFn fallback = [&](const Genome&) {
        ++fallback_calls;
        return Evaluation{true, -1.0};
    };
    const EvalFn eval = partial.lookup_eval(Metric::area_luts, fallback);
    // Query every point; 35 of 40 must hit the fallback.
    for (std::size_t rank = 0; rank < 40; ++rank)
        eval(Genome::from_rank(gen.space(), rank));
    EXPECT_EQ(fallback_calls, 35);
}

TEST(Dataset, LookupEvalWithoutFallbackReportsInfeasible)
{
    const GridGenerator gen;
    const Dataset partial = Dataset::sample(gen, 5, 3);
    const EvalFn eval = partial.lookup_eval(Metric::area_luts);
    int infeasible = 0;
    for (std::size_t rank = 0; rank < 40; ++rank)
        if (!eval(Genome::from_rank(gen.space(), rank)).feasible) ++infeasible;
    EXPECT_GE(infeasible, 35);
}

TEST(Dataset, CsvRoundTrip)
{
    const GridGenerator gen;
    const Dataset ds = Dataset::enumerate(gen);
    std::stringstream buffer;
    ds.save_csv(buffer, gen);
    const Dataset loaded = Dataset::load_csv(buffer, gen);
    ASSERT_EQ(loaded.size(), ds.size());
    for (std::size_t i = 0; i < ds.size(); ++i) {
        EXPECT_EQ(loaded.entry(i).genome, ds.entry(i).genome);
        EXPECT_EQ(loaded.entry(i).values.feasible, ds.entry(i).values.feasible);
        if (ds.entry(i).values.feasible) {
            EXPECT_DOUBLE_EQ(loaded.entry(i).values.get(Metric::area_luts),
                             ds.entry(i).values.get(Metric::area_luts));
        }
    }
}

TEST(Dataset, LoadCsvRejectsGarbage)
{
    const GridGenerator gen;
    std::stringstream empty;
    EXPECT_THROW(Dataset::load_csv(empty, gen), std::runtime_error);
    std::stringstream truncated{"x;y;feasible;area_luts;freq_mhz\n3\n"};
    EXPECT_THROW(Dataset::load_csv(truncated, gen), std::runtime_error);
}

// Every cell must be consumed whole by std::from_chars: trailing junk,
// non-numbers and non-finite metrics are errors that name the row and cell.
TEST(Dataset, LoadCsvRejectsBadCellsWithRowAndCell)
{
    const GridGenerator gen;
    const std::string header = "x;y;feasible;area_luts;freq_mhz\n";
    const struct {
        const char* row;
        const char* cell;
    } cases[] = {
        {"3x;1;1;31;102", "3x"},       {"abc;1;1;31;102", "abc"},
        {"3;1;1;1.5abc;102", "1.5abc"}, {"3;1;1;nan;102", "nan"},
        {"3;1;1;31;inf", "inf"},       {"3;1;1;31;-inf", "-inf"},
        {"3; 1;1;31;102", " 1"},       {"-3;1;1;31;102", "-3"},
        {"3;1;yes;31;102", "yes"},     {"3;1;1;31;1e999", "1e999"},
    };
    for (const auto& c : cases) {
        std::stringstream in{header + "1;1;1;11;100\n" + c.row + "\n"};
        try {
            Dataset::load_csv(in, gen);
            ADD_FAILURE() << "accepted row '" << c.row << "'";
        }
        catch (const std::runtime_error& e) {
            EXPECT_EQ(std::string{e.what()},
                      std::string{"Dataset::load_csv: row 3: bad cell '"} + c.cell + "'");
        }
        catch (const std::exception& e) {
            ADD_FAILURE() << "row '" << c.row << "' threw a non-runtime_error: " << e.what();
        }
    }
    // Empty metric cells still mean "not measured".
    std::stringstream sparse{header + "3;1;0;;\n"};
    const Dataset ds = Dataset::load_csv(sparse, gen);
    ASSERT_EQ(ds.size(), 1u);
    EXPECT_FALSE(ds.entry(0).values.try_get(Metric::area_luts).has_value());
}

TEST(Dataset, EntryOutOfRangeThrows)
{
    const GridGenerator gen;
    const Dataset ds = Dataset::enumerate(gen);
    EXPECT_THROW(ds.entry(40), std::out_of_range);
}

TEST(Dataset, MetricWithNoFeasibleValuesThrows)
{
    const GridGenerator gen;
    const Dataset ds = Dataset::enumerate(gen);
    EXPECT_THROW(ds.best(Metric::snr_db, Direction::maximize), std::invalid_argument);
}

}  // namespace
}  // namespace nautilus::ip
