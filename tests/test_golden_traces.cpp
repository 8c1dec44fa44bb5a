// Golden traces: the timing-free projection of two reference CLI runs must
// match tests/golden/*.v2.jsonl line for line, at 1 and at 4 evaluation
// workers.  This pins the absolute output of selection, crossover and
// hint-guided mutation, and the lineage birth stream, which comparing two
// runs of the same code cannot see (DESIGN.md section 10).  On a mismatch
// the fresh projection is written into the build tree with the `cp` command
// that accepts it; accepting one is a behaviour change for CHANGES.md.
//
// tests/golden/{ga_experiment,nsga2}.jsonl are the same two runs in trace
// format v1 (one `birth` event per birth, %.17g doubles).  They stay as the
// reader's v1 fixtures: both layouts must decode to the same births and the
// same values for every other event.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"

namespace nautilus {
namespace {

// Fields that measure time or depend on the worker count.
constexpr std::array<std::string_view, 7> k_dropped_fields{
    "t", "seconds", "busy_seconds", "eval_seconds", "waits", "inflight_waits", "workers"};

std::string project(const obs::TraceEvent& event)
{
    obs::TraceEvent kept{event.type};
    for (const auto& field : event.fields)
        if (std::find(k_dropped_fields.begin(), k_dropped_fields.end(), field.first) ==
            k_dropped_fields.end())
            kept.fields.push_back(field);
    std::string line = obs::to_jsonl(kept);
    const auto t = line.find(",\"t\":");
    line.erase(t, line.find_first_of(",}", t + 1) - t);
    return line;
}

// Printed as the ctest name suffix, e.g. ga_experiment_w4.
struct GoldenCase {
    const char* golden;  // tests/golden/<golden>.jsonl
    int workers;
    friend void PrintTo(const GoldenCase& c, std::ostream* os)
    {
        *os << c.golden << "_w" << c.workers;
    }
};

class GoldenTrace : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenTrace, MatchesCommittedProjection)
{
    const GoldenCase& c = GetParam();
    const std::string workers = std::to_string(c.workers);
    const std::string args =
        std::string{c.golden} == "ga_experiment"
            ? "--ip router --metric freq_mhz --guidance strong --runs 2 --generations 15 "
              "--lineage --workers " + workers
            : "--job " NAUTILUS_SPEC_DIR "/nsga2_router_w" + workers + ".json --lineage";
    const std::string stem =
        std::string{NAUTILUS_GOLDEN_OUT_DIR} + "/golden_" + c.golden + "_w" + workers;
    const std::string trace = stem + ".trace.jsonl";
    std::remove(trace.c_str());
    const std::string command = std::string{NAUTILUS_CLI} + " " + args + " --trace " + trace +
                                " > " + stem + ".out";
    ASSERT_EQ(std::system(command.c_str()), 0) << command;

    std::vector<std::string> fresh;
    obs::TraceReader reader{trace};
    while (reader.next())
        if (reader.event().type != "span") fresh.push_back(project(reader.event()));
    ASSERT_TRUE(reader.is_open() && reader.parse_errors() == 0) << trace;

    const std::string golden_path =
        std::string{NAUTILUS_GOLDEN_DIR} + "/" + c.golden + ".v2.jsonl";
    std::vector<std::string> golden;
    std::ifstream in{golden_path};
    for (std::string line; std::getline(in, line);) golden.push_back(line);
    if (fresh == golden) return;

    const std::string fresh_path = stem + ".fresh.jsonl";
    std::ofstream out{fresh_path};
    for (const std::string& line : fresh) out << line << '\n';
    std::size_t i = 0;
    while (i < fresh.size() && i < golden.size() && fresh[i] == golden[i]) ++i;
    ADD_FAILURE() << "trace projection differs from " << golden_path << " at line " << i + 1
                  << " (" << fresh.size() << " fresh vs " << golden.size()
                  << " golden lines)\n  golden: " << (i < golden.size() ? golden[i] : "<eof>")
                  << "\n  fresh:  " << (i < fresh.size() ? fresh[i] : "<eof>")
                  << "\nIf the change is intended, accept it (and record it in CHANGES.md):\n"
                  << "  cp " << fresh_path << " " << golden_path;
}

INSTANTIATE_TEST_SUITE_P(Goldens, GoldenTrace,
                         ::testing::Values(GoldenCase{"ga_experiment", 1},
                                           GoldenCase{"ga_experiment", 4},
                                           GoldenCase{"nsga2", 1}, GoldenCase{"nsga2", 4}));

}  // namespace
}  // namespace nautilus
