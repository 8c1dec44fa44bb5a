// The one JSON codec (obs/json): the escaper every writer uses, the strict
// flat-object reader, the two readers built on it -- trace lines
// (parse_jsonl_line) and job specs (parse_job_spec) -- and the shared
// shortest round-trip double formatter (obs/format.hpp).

#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "obs/format.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"
#include "serve/job_spec.hpp"

namespace nautilus {
namespace {

using obs::JsonValue;
using obs::parse_flat_object;

std::string escaped(std::string_view s)
{
    std::string out;
    obs::append_json_string(out, s);
    return out;
}

// ---- Escaper ---------------------------------------------------------------

TEST(ObsJson, EscaperWritesShortEscapesAndHexForOtherControlBytes)
{
    EXPECT_EQ(escaped(""), "\"\"");
    EXPECT_EQ(escaped("a\"b\\c"), R"("a\"b\\c")");
    EXPECT_EQ(escaped("\n\t\r"), R"("\n\t\r")");
    EXPECT_EQ(escaped(std::string{"\x01\x1f\b\f", 4}), R"("\u0001\u001f\u0008\u000c")");
    EXPECT_EQ(escaped(std::string{"\0", 1}), R"("\u0000")");
    // Bytes from 0x20 up, UTF-8 included, pass through untouched.
    EXPECT_EQ(escaped("/ \x7f \xc3\xa9"), "\"/ \x7f \xc3\xa9\"");
}

TEST(ObsJson, EveryEscapedByteReadsBack)
{
    std::string all;
    for (int b = 0; b < 256; ++b) all += static_cast<char>(b);
    const obs::FlatObject o = parse_flat_object("{\"s\":" + escaped(all) + "}");
    ASSERT_FALSE(o.error) << o.error->describe();
    EXPECT_EQ(o.find("s")->text, all);
}

// ---- Reader ----------------------------------------------------------------

TEST(ObsJson, ReaderKeepsKeysInOrderWithTypedValues)
{
    const obs::FlatObject o = parse_flat_object(
        " \r\n{\t\"s\" : \"a\\/b\\b\\f\\u0041\\u007f\" ,\"n\":-0.5e+3,\"i\":0,"
        "\"yes\":true,\"no\":false,\"nil\":null,\"v\":[ 1 , null,-2.5E-1 ],\"e\":[]}\n");
    ASSERT_FALSE(o.error) << o.error->describe();
    ASSERT_EQ(o.fields.size(), 8u);
    const char* keys[] = {"s", "n", "i", "yes", "no", "nil", "v", "e"};
    for (std::size_t i = 0; i < o.fields.size(); ++i) EXPECT_EQ(o.fields[i].first, keys[i]);
    EXPECT_EQ(o.find("s")->kind, JsonValue::Kind::string);
    EXPECT_EQ(o.find("s")->text, "a/b\b\fA\x7f");
    EXPECT_EQ(o.find("n")->kind, JsonValue::Kind::number);
    EXPECT_EQ(o.find("n")->text, "-0.5e+3");  // numbers keep their token
    EXPECT_EQ(o.find("n")->offset, 39u);
    EXPECT_TRUE(o.find("yes")->truth);
    EXPECT_EQ(o.find("no")->kind, JsonValue::Kind::boolean);
    EXPECT_FALSE(o.find("no")->truth);
    EXPECT_EQ(o.find("nil")->kind, JsonValue::Kind::null);
    const std::vector<double>& v = o.find("v")->numbers;
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], 1.0);
    EXPECT_TRUE(std::isnan(v[1]));
    EXPECT_EQ(v[2], -0.25);
    EXPECT_EQ(o.find("e")->kind, JsonValue::Kind::array);
    EXPECT_TRUE(o.find("e")->numbers.empty());
    EXPECT_EQ(o.find("missing"), nullptr);

    EXPECT_FALSE(parse_flat_object("{}").error);
}

TEST(ObsJson, NumbersFollowTheRfc8259Grammar)
{
    for (const char* ok : {"0", "-0", "7", "-12", "0.5", "10.25", "1e5", "1E+5", "2e-07",
                           "-0.0e0", "18446744073709551616"}) {
        const obs::FlatObject o = parse_flat_object(std::string{"{\"x\":"} + ok + "}");
        EXPECT_FALSE(o.error) << ok << ": " << o.error->describe();
        if (!o.error) {
            EXPECT_EQ(o.find("x")->text, ok);
        }
    }
    for (const char* bad : {"-", "+1", "01", "-01", ".5", "1.", "1.e5", "1e", "1e+", "e5",
                            "1-2", "1.2.3", "0x10", "1,", "NaN", "Infinity", "--1", "1e5e5"}) {
        EXPECT_TRUE(parse_flat_object(std::string{"{\"x\":"} + bad + "}").error) << bad;
        EXPECT_TRUE(parse_flat_object(std::string{"{\"x\":["} + bad + "]}").error) << bad;
    }
}

TEST(ObsJson, RejectionsNameTheReasonAndByteOffset)
{
    const struct {
        const char* text;
        const char* reason;
        std::size_t offset;
    } cases[] = {
        {"", "expected '{'", 0},
        {"[1]", "expected '{'", 0},
        {"{\"a\":1", "expected ',' or '}'", 6},
        {"{\"a\" 1}", "expected ':' after a key", 5},
        {"{a:1}", "expected a string", 1},
        {"{\"a\":1} x", "trailing content after the object", 8},
        {"{\"a\":1,\"a\":2}", "duplicate key \"a\"", 7},
        {"{\"a\":\"x\x01\"}", "raw control byte in a string", 7},
        {"{\"a\":\"x\\q\"}", "unsupported escape", 7},
        {"{\"a\":\"\\u00e9\"}", "\\u escape beyond ASCII", 6},
        {"{\"a\":\"\\u12\"}", "bad \\u escape", 6},
        {"{\"a\":\"abc", "unterminated string", 9},
        {"{\"a\":tru}", "expected a value", 5},
        {"{\"a\":{}}", "expected a value", 5},
        {"{\"a\":[\"s\"]}", "expected a value", 6},
        {"{\"a\":[1 2]}", "expected ',' or ']'", 8},
        {"{\"a\":[1e999]}", "number out of range", 6},
        {"{\"a\":1.}", "expected a digit", 7},
    };
    for (const auto& c : cases) {
        const obs::FlatObject o = parse_flat_object(c.text);
        ASSERT_TRUE(o.error) << c.text;
        EXPECT_EQ(o.error->reason, c.reason) << c.text;
        EXPECT_EQ(o.error->offset, c.offset) << c.text;
        EXPECT_TRUE(o.fields.empty()) << c.text;
    }
    EXPECT_EQ(parse_flat_object("{\"a\":1,\"a\":2}").error->describe(),
              "duplicate key \"a\" at byte 7");
}

TEST(ObsJson, FromJsonNumberConsumesTheWholeTokenInRange)
{
    std::uint64_t u = 0;
    EXPECT_TRUE(obs::from_json_number("18446744073709551615", u));
    EXPECT_EQ(u, 18446744073709551615ull);
    EXPECT_FALSE(obs::from_json_number("18446744073709551616", u));
    EXPECT_FALSE(obs::from_json_number("-1", u));
    EXPECT_FALSE(obs::from_json_number("1.5", u));
    EXPECT_FALSE(obs::from_json_number("", u));
    double d = 0.0;
    EXPECT_TRUE(obs::from_json_number("2.5e-1", d));
    EXPECT_EQ(d, 0.25);
    EXPECT_FALSE(obs::from_json_number("1e400", d));
}

// ---- Trace lines: the strict grammar's fixes -------------------------------

TEST(TraceLineGrammar, RejectsMalformedNumbers)
{
    for (const char* line :
         {R"({"type":"a","x":1-2})", R"({"type":"a","x":-})", R"({"type":"a","t":e})",
          R"({"type":"a","t":1.2.3})", R"({"type":"a","x":[1,2-3]})"})
        EXPECT_FALSE(obs::parse_jsonl_line(line).has_value()) << line;
    EXPECT_TRUE(obs::parse_jsonl_line(R"({"type":"a","t":1.5,"x":[1,-2.5e-3]})").has_value());
}

TEST(TraceLineGrammar, RejectsDuplicateKeys)
{
    EXPECT_FALSE(obs::parse_jsonl_line(R"({"type":"a","type":"b","x":1})").has_value());
    EXPECT_FALSE(obs::parse_jsonl_line(R"({"type":"a","x":1,"x":2})").has_value());
}

TEST(TraceLineGrammar, RejectsRawControlBytesInStrings)
{
    EXPECT_FALSE(obs::parse_jsonl_line("{\"type\":\"a\",\"s\":\"x\x01y\"}").has_value());
    const auto ok = obs::parse_jsonl_line(R"({"type":"a","s":"x\u0001y"})");
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->string("s").value(), "x\x01y");
}

TEST(TraceLineGrammar, SubnormalDoublesRoundTripBitExact)
{
    for (const double v : {std::numeric_limits<double>::denorm_min(), 1e-310, -1e-310,
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::max()}) {
        obs::TraceEvent ev{"sub"};
        ev.t = v;
        ev.add("v", obs::FieldValue{v}).add("vec", obs::FieldValue{std::vector<double>{v}});
        const std::string line = obs::to_jsonl(ev);
        const auto back = obs::parse_jsonl_line(line);
        ASSERT_TRUE(back.has_value()) << line;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back->t), std::bit_cast<std::uint64_t>(v));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(std::get<double>(*back->find("v"))),
                  std::bit_cast<std::uint64_t>(v));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      std::get<std::vector<double>>(*back->find("vec")).at(0)),
                  std::bit_cast<std::uint64_t>(v));
        EXPECT_EQ(obs::to_jsonl(*back), line);
    }
    EXPECT_NE(obs::to_jsonl(obs::TraceEvent{"x"}.add("v", obs::FieldValue{5e-324}))
                  .find("\"v\":5e-324"),
              std::string::npos);
}

TEST(TraceLineGrammar, RejectionsSayWhyAndWhere)
{
    obs::JsonError why;
    EXPECT_FALSE(obs::parse_jsonl_line(R"({"type":"a","x":1-2})", &why));
    EXPECT_EQ(why.describe(), "expected ',' or '}' at byte 17");
    EXPECT_FALSE(obs::parse_jsonl_line(R"({"t":0.5})", &why));
    EXPECT_EQ(why.describe(), "missing \"type\" at byte 9");
    EXPECT_FALSE(obs::parse_jsonl_line(R"({"type":7})", &why));
    EXPECT_EQ(why.describe(), "\"type\" is not a string at byte 8");
    EXPECT_FALSE(obs::parse_jsonl_line(R"({"type":"a","t":3})", &why));
    EXPECT_EQ(why.describe(), "\"t\" is not a double at byte 16");
    EXPECT_FALSE(obs::parse_jsonl_line(R"({"type":"a","x":18446744073709551616})", &why));
    EXPECT_EQ(why.describe(), "number out of range at byte 16");
    EXPECT_FALSE(obs::parse_jsonl_line(R"({"type":"a","x":-9223372036854775809})", &why));
    EXPECT_EQ(why.reason, "number out of range");
}

TEST(TraceReader, NamesTheCauseOfAnUnparseableLine)
{
    const std::string path = testing::TempDir() + "obs_json_reader.jsonl";
    {
        std::ofstream out{path};
        out << "{\"type\":\"ok\"}\n\n{\"type\":\"a\",\"x\":1-2}\n{\"type\":\"ok\"}\n";
    }
    obs::TraceReader reader{path};
    testing::internal::CaptureStderr();
    std::size_t events = 0;
    while (reader.next()) ++events;
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(events, 2u);
    EXPECT_EQ(reader.parse_errors(), 1u);
    EXPECT_EQ(err, path + ":3: unparseable trace line: expected ',' or '}' at byte 17\n");
    std::remove(path.c_str());
}

// ---- Shortest round-trip doubles ----------------------------------------------

std::string json_double(double v)
{
    std::string out;
    obs::append_json_double(out, v);
    return out;
}

// The rendering trace format v1 wrote: %.17g plus the same null and ".0"
// rules.
std::string json_double_17g(double v)
{
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    std::string out = buf;
    if (out.find_first_of(".eE") == std::string::npos) out += ".0";
    return out;
}

// One value through a trace line as a scalar, an array element and `t`:
// each must read back bit for bit (NaN for a non-finite value), the scalar
// no longer than its %.17g rendering and, when integral, still a double.
void expect_shortest_round_trip(double v)
{
    const std::string text = json_double(v);
    SCOPED_TRACE(text);
    EXPECT_LE(text.size(), json_double_17g(v).size()) << json_double_17g(v);
    if (std::isfinite(v) && v == std::trunc(v)) {
        ASSERT_NE(text.find_first_of(".e"), std::string::npos);
        if (text.find('e') == std::string::npos) {
            EXPECT_EQ(text.substr(text.size() - 2), ".0");
        }
    }

    obs::TraceEvent ev{"d"};
    ev.t = v;
    ev.add("v", obs::FieldValue{v}).add("a", obs::FieldValue{std::vector<double>{v, 1.0}});
    const std::string line = obs::to_jsonl(ev);
    const std::optional<obs::TraceEvent> back = obs::parse_jsonl_line(line);
    ASSERT_TRUE(back.has_value()) << line;
    ASSERT_NE(line.find("\"v\":" + text + ","), std::string::npos) << line;
    const double scalar = std::get<double>(*back->find("v"));
    const double element = std::get<std::vector<double>>(*back->find("a")).at(0);
    if (!std::isfinite(v)) {
        EXPECT_EQ(text, "null");
        EXPECT_TRUE(std::isnan(scalar) && std::isnan(element) && std::isnan(back->t));
        return;
    }
    const auto bits = std::bit_cast<std::uint64_t>(v);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(scalar), bits);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(element), bits);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back->t), bits);
}

TEST(DoubleFormat, EdgeCasesRenderShortestAndRoundTrip)
{
    const std::pair<double, const char*> cases[] = {
        {0.0, "0.0"},
        {-0.0, "-0.0"},
        {std::numeric_limits<double>::denorm_min(), "5e-324"},
        {-1e-310, "-1e-310"},
        {std::numeric_limits<double>::min(), "2.2250738585072014e-308"},
        {std::numeric_limits<double>::max(), "1.7976931348623157e+308"},
        {9007199254740993.0, "9007199254740992.0"},  // 2^53 + 1 rounds to 2^53
        {1e21, "1e+21"},
        {1.2345678901234568e20, "1.2345678901234568e+20"},  // 21 digits in fixed
        {100.0, "100.0"},
        {0.1, "0.1"},
        {0.00028949899999999997, "0.000289499"},
        {std::numeric_limits<double>::infinity(), "null"},
        {std::numeric_limits<double>::quiet_NaN(), "null"},
    };
    for (const auto& [v, want] : cases) {
        EXPECT_EQ(json_double(v), want);
        expect_shortest_round_trip(v);
    }
    std::string element;
    obs::append_json_element(element, 100.0);
    EXPECT_EQ(element, "100");
}

TEST(DoubleFormat, RandomBitPatternsRoundTripNoLongerThan17g)
{
    Rng rng{0xd0b1e};
    for (int i = 0; i < 100000; ++i) {
        expect_shortest_round_trip(std::bit_cast<double>(rng.next_u64()));
        if (testing::Test::HasFailure()) return;
    }
}

// ---- Job specs ---------------------------------------------------------------

std::string spec_error(const std::string& json)
{
    try {
        serve::parse_job_spec(json);
    }
    catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "accepted";
}

TEST(JobSpecGrammar, AcceptsAsciiUnicodeEscapesAndAllJsonWhitespace)
{
    const serve::JobSpec spec = serve::parse_job_spec(
        "{\r\n\t\"engine\":\"ga\",\"metric\":\"freq\\u005fmhz\",\"generations\":3}\r\n");
    EXPECT_EQ(spec.metric, "freq_mhz");
}

TEST(JobSpecGrammar, GrammarErrorsCarryTheReaderReason)
{
    EXPECT_EQ(spec_error(R"({"engine":"ga","engine":"sa","generations":3})"),
              "spec is not valid JSON: duplicate key \"engine\" at byte 15");
    EXPECT_EQ(spec_error(R"({"engine":"ga","generations":+3})"),
              "spec is not valid JSON: expected a value at byte 29");
    EXPECT_EQ(spec_error(R"({"engine":"ga","generations":03})"),
              "spec is not valid JSON: expected ',' or '}' at byte 30");
    // Field-level checks are unchanged: a well-formed number of the wrong
    // shape names the field and the token.
    EXPECT_EQ(spec_error(R"({"engine":"ga","generations":3,"seed":1e3})"),
              "field 'seed' must be a non-negative integer (got 1e3)");
    EXPECT_EQ(spec_error(R"({"engine":"ga","generations":3,"seed":18446744073709551616})"),
              "field 'seed' must be a non-negative integer (got 18446744073709551616)");
    EXPECT_EQ(spec_error(R"({"engine":"ga","generations":3,"seed":null})"),
              "field 'seed' must be a non-negative integer");
    EXPECT_EQ(spec_error(R"({"engine":["ga"],"generations":3})"),
              "spec is not valid JSON: expected a value at byte 11");
    EXPECT_EQ(spec_error(R"({"engine":null,"generations":3})"),
              "field 'engine' must be a string");
}

// ---- Seeded mutation smoke ---------------------------------------------------

struct Seed {
    std::string text;
    bool trace_line;  // a tests/golden line, else a tests/specs document
};

std::vector<Seed> seed_corpus()
{
    std::vector<Seed> corpus;
    const auto files = [](const char* dir, const char* ext) {
        std::vector<std::filesystem::path> out;
        for (const auto& entry : std::filesystem::directory_iterator{dir})
            if (entry.path().extension() == ext) out.push_back(entry.path());
        std::sort(out.begin(), out.end());  // fixed order: the run is reproducible
        return out;
    };
    for (const auto& path : files(NAUTILUS_GOLDEN_DIR, ".jsonl")) {
        std::ifstream in{path};
        for (std::string line; std::getline(in, line);) corpus.push_back({line, true});
    }
    for (const auto& path : files(NAUTILUS_SPEC_DIR, ".json")) {
        std::ifstream in{path};
        std::ostringstream text;
        text << in.rdbuf();
        corpus.push_back({text.str(), false});
    }
    return corpus;
}

// One to three byte flips, truncations, splices from another seed, or
// inserted digits, signs, quotes and structural bytes.
std::string mutate(std::string s, const std::vector<Seed>& corpus, Rng& rng)
{
    static constexpr char k_inserts[] = "0123456789-+.eE\"\\,:[]{} nul";
    const std::size_t edits = 1 + rng.index(3);
    for (std::size_t e = 0; e < edits; ++e) {
        const std::size_t at = rng.index(s.size() + 1);
        switch (rng.index(4)) {
        case 0:
            if (at < s.size()) s[at] = static_cast<char>(s[at] ^ (1u << rng.index(8)));
            break;
        case 1: s.resize(at); break;
        case 2: {
            const std::string& other = corpus[rng.index(corpus.size())].text;
            const std::size_t from = rng.index(other.size() + 1);
            const std::size_t len = rng.index(other.size() - from + 1);
            s.replace(at, rng.index(s.size() - at + 1), other, from, len);
            break;
        }
        default: s.insert(at, 1, k_inserts[rng.index(sizeof k_inserts - 1)]); break;
        }
    }
    return s;
}

TEST(JsonMutationSmoke, ReadersRejectOrRoundTripEveryMutant)
{
    const std::vector<Seed> corpus = seed_corpus();
    ASSERT_GT(corpus.size(), 900u);  // both goldens and every spec
    for (const Seed& seed : corpus) {
        if (seed.trace_line) ASSERT_TRUE(obs::parse_jsonl_line(seed.text)) << seed.text;
        else ASSERT_FALSE(parse_flat_object(seed.text).error) << seed.text;
    }

    // Half the budget goes to trace lines and half to specs, each walking
    // its seeds round-robin, so every seed is mutated.
    std::vector<const Seed*> lines, specs;
    for (const Seed& seed : corpus) (seed.trace_line ? lines : specs).push_back(&seed);
    constexpr std::size_t k_mutants = 20000;
    Rng rng{0x15u};
    std::size_t lines_accepted = 0, lines_rejected = 0, specs_accepted = 0, specs_rejected = 0;
    for (std::size_t i = 0; i < k_mutants; ++i) {
        const std::vector<const Seed*>& pool = i % 2 == 0 ? lines : specs;
        const Seed& seed = *pool[(i / 2) % pool.size()];
        const std::string mutant = mutate(seed.text, corpus, rng);
        if (seed.trace_line) {
            const std::optional<obs::TraceEvent> event = obs::parse_jsonl_line(mutant);
            if (!event) {
                ++lines_rejected;
                continue;
            }
            ++lines_accepted;
            const std::string line = obs::to_jsonl(*event);
            const std::optional<obs::TraceEvent> again = obs::parse_jsonl_line(line);
            ASSERT_TRUE(again) << "mutant: " << mutant << "\nwritten: " << line;
            ASSERT_EQ(obs::to_jsonl(*again), line) << "mutant: " << mutant;
        }
        else {
            try {
                const serve::JobSpec spec = serve::parse_job_spec(mutant);
                ++specs_accepted;
                const std::string canonical = serve::canonical_spec_json(spec);
                ASSERT_EQ(serve::canonical_spec_json(serve::parse_job_spec(canonical)),
                          canonical)
                    << "mutant: " << mutant;
            }
            catch (const std::invalid_argument&) {
                ++specs_rejected;
            }
        }
    }
    // The budget exercises both outcomes of both readers.
    EXPECT_GT(lines_accepted, 100u);
    EXPECT_GT(lines_rejected, 100u);
    EXPECT_GT(specs_accepted, 10u);
    EXPECT_GT(specs_rejected, 10u);
}

}  // namespace
}  // namespace nautilus
