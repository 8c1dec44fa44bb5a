// obs::RunTraceModel: the one reading of a trace behind trace_inspect,
// trace_diff and lineage_report.  Both committed goldens must read back
// with no structural error and no accounting violation, and their v1 and
// v2 layouts must decode alike; hand-built event sequences pin resume
// baselines, job_summary attachment, the NSGA-II `born` check and every
// structural error the tools refuse.

#include "obs/trace_model.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace_reader.hpp"

namespace nautilus {
namespace {

using obs::FieldValue;
using obs::RunTraceModel;
using obs::TraceEvent;
using obs::TraceViolation;

constexpr double k_null = std::numeric_limits<double>::quiet_NaN();  // JSON null

std::vector<TraceEvent> golden_events(const std::string& name)
{
    obs::TraceReader reader{std::string{NAUTILUS_GOLDEN_DIR} + "/" + name};
    std::vector<TraceEvent> events;
    while (reader.next()) events.push_back(reader.event());
    EXPECT_EQ(reader.parse_errors(), 0u);
    return events;
}

// Feeds `events` as lines 1..N of a trace named t.jsonl.
RunTraceModel feed(const std::vector<TraceEvent>& events)
{
    RunTraceModel model{"t.jsonl"};
    std::size_t line = 0;
    for (const TraceEvent& ev : events) model.add(ev, ++line);
    model.finish();
    return model;
}

std::vector<std::string> error_texts(const RunTraceModel& model)
{
    std::vector<std::string> out;
    for (const obs::TraceError& e : model.errors) out.push_back(e.text);
    return out;
}

std::vector<std::string> violation_texts(const RunTraceModel& model)
{
    std::vector<std::string> out;
    for (const TraceViolation& v : model.check()) out.push_back(v.text);
    return out;
}

TraceEvent run_start(const char* engine)
{
    return TraceEvent{"run_start"}.add("engine", engine);
}

TraceEvent wave(int size, int fresh)
{
    return TraceEvent{"eval_wave"}.add("size", size).add("fresh", fresh).add("hits",
                                                                             size - fresh);
}

TraceEvent run_end(int distinct)
{
    return TraceEvent{"run_end"}
        .add("distinct_evals", distinct)
        .add("attempts", distinct)
        .add("retries", 0);
}

TraceEvent birth(int id, int gen, const char* op, const char* origins)
{
    return TraceEvent{"birth"}.add("id", id).add("gen", gen).add("op", op).add("origins",
                                                                              origins);
}

// A trace format v2 `births` record.
TraceEvent births(int first, int gen, const char* ops, std::vector<double> pa,
                  std::vector<double> pb, const char* origins)
{
    return TraceEvent{"births"}
        .add("gen", gen)
        .add("first", first)
        .add("ops", ops)
        .add("pa", FieldValue{std::move(pa)})
        .add("pb", FieldValue{std::move(pb)})
        .add("origins", origins);
}

// Every field of a birth record, for comparisons that print well.
std::string describe(const obs::BirthRecord& rec)
{
    std::ostringstream out;
    out << "id " << rec.id << " gen " << rec.generation << ' ' << obs::birth_op_name(rec.op)
        << " pa " << rec.parent_a << " pb " << rec.parent_b << ' '
        << obs::origin_codes(rec.origins);
    return out.str();
}

// Same kind and same value; doubles compare bit for bit.
bool same_value(const FieldValue& a, const FieldValue& b)
{
    if (a.index() != b.index()) return false;
    if (const auto* x = std::get_if<double>(&a))
        return std::bit_cast<std::uint64_t>(*x) == std::bit_cast<std::uint64_t>(std::get<double>(b));
    if (const auto* x = std::get_if<std::vector<double>>(&a)) {
        const auto& y = std::get<std::vector<double>>(b);
        if (x->size() != y.size()) return false;
        for (std::size_t i = 0; i < x->size(); ++i)
            if (std::bit_cast<std::uint64_t>((*x)[i]) != std::bit_cast<std::uint64_t>(y[i]))
                return false;
        return true;
    }
    return a == b;
}

// ---- the committed goldens --------------------------------------------------

TEST(TraceModelGolden, GaExperimentReadsBackConsistent)
{
    obs::TraceReader reader{std::string{NAUTILUS_GOLDEN_DIR} + "/ga_experiment.jsonl"};
    ASSERT_TRUE(reader.is_open());
    const RunTraceModel model = RunTraceModel::read(reader);
    EXPECT_TRUE(model.errors.empty());
    EXPECT_TRUE(model.check().empty());
    EXPECT_EQ(model.unparseable, 0u);
    EXPECT_EQ(model.events, model.lines);
    ASSERT_EQ(model.runs.size(), 4u);
    std::uint64_t births = 0;
    for (const obs::RunTrace& run : model.runs) {
        EXPECT_EQ(run.engine, "ga");
        EXPECT_TRUE(run.terminated());
        EXPECT_TRUE(run.dense());
        EXPECT_FALSE(run.breeds.empty());
        ASSERT_TRUE(run.lineage.has_value());
        EXPECT_EQ(run.lineage->births, run.births.size());
        EXPECT_EQ(run.distinct_in_trace(), run.fresh);
        births += run.births.size();
    }
    EXPECT_EQ(model.counts.at("birth"), births);
}

TEST(TraceModelGolden, Nsga2ReadsBackConsistent)
{
    const RunTraceModel model = feed(golden_events("nsga2.jsonl"));
    EXPECT_TRUE(model.errors.empty());
    EXPECT_TRUE(model.check().empty());
    ASSERT_EQ(model.runs.size(), 1u);
    const obs::RunTrace& run = model.runs[0];
    EXPECT_EQ(run.engine, "nsga2");
    ASSERT_FALSE(run.generations.empty());
    std::uint64_t born = 0;
    for (const auto& [gen, draws] : run.generations) born += draws.born;
    ASSERT_TRUE(run.lineage.has_value());
    EXPECT_EQ(born, run.lineage->births - run.lineage->roots);
}

TEST(TraceModelGolden, TamperedLineageSummaryFailsTheReplay)
{
    std::vector<TraceEvent> events = golden_events("ga_experiment.jsonl");
    for (TraceEvent& ev : events) {
        if (ev.type != "lineage_summary") continue;
        const std::uint64_t genes = ev.unsigned_int("genes_uniform").value_or(0);
        for (auto& [key, value] : ev.fields)
            if (key == "genes_uniform") value = genes + 1;
        break;
    }
    const std::vector<TraceViolation> violations = feed(events).check();
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].run, 0u);
    EXPECT_TRUE(violations[0].lineage);
    EXPECT_NE(violations[0].text.find("lineage_summary genes_uniform"), std::string::npos)
        << violations[0].text;
}

// The v1 and v2 goldens are the same two runs in the two trace layouts.
// They must decode to equal birth records with births in the same places,
// and every other event must carry the same fields with bit-identical
// values: the shortest round-trip doubles of v2 read back exactly as v1's
// %.17g ones.
TEST(TraceModelGolden, V1AndV2DecodeToTheSameBirthsAndValues)
{
    for (const std::string name : {"ga_experiment", "nsga2"}) {
        SCOPED_TRACE(name);
        const std::vector<TraceEvent> v1 = golden_events(name + ".jsonl");
        const std::vector<TraceEvent> v2 = golden_events(name + ".v2.jsonl");
        const RunTraceModel m1 = feed(v1);
        const RunTraceModel m2 = feed(v2);
        EXPECT_TRUE(m2.errors.empty());
        EXPECT_TRUE(m2.check().empty());
        EXPECT_EQ(m2.counts.count("births"), 0u);
        EXPECT_EQ(m1.counts, m2.counts);
        EXPECT_EQ(m1.events, m2.events);
        EXPECT_LT(v2.size(), v1.size());
        ASSERT_EQ(m1.runs.size(), m2.runs.size());
        for (std::size_t r = 0; r < m1.runs.size(); ++r) {
            std::vector<std::string> b1, b2;
            for (const obs::BirthRecord& rec : m1.runs[r].births) b1.push_back(describe(rec));
            for (const obs::BirthRecord& rec : m2.runs[r].births) b2.push_back(describe(rec));
            EXPECT_FALSE(b1.empty());
            EXPECT_EQ(b1, b2) << "run " << r;
        }

        // Births sit where v1's did: with each run of birth events and of
        // births records collapsed to one marker, the sequences agree.
        const auto shape = [](const std::vector<TraceEvent>& events) {
            std::vector<std::string> out;
            for (const TraceEvent& ev : events) {
                const bool birth = ev.type == "birth" || ev.type == "births";
                if (birth && !out.empty() && out.back() == "births") continue;
                out.push_back(birth ? "births" : ev.type);
            }
            return out;
        };
        EXPECT_EQ(shape(v1), shape(v2));

        const auto others = [](const std::vector<TraceEvent>& events) {
            std::vector<TraceEvent> out;
            for (const TraceEvent& ev : events)
                if (ev.type != "birth" && ev.type != "births") out.push_back(ev);
            return out;
        };
        const std::vector<TraceEvent> o1 = others(v1);
        const std::vector<TraceEvent> o2 = others(v2);
        ASSERT_EQ(o1.size(), o2.size());
        for (std::size_t i = 0; i < o1.size(); ++i) {
            ASSERT_EQ(o1[i].type, o2[i].type) << "event " << i;
            ASSERT_EQ(o1[i].fields.size(), o2[i].fields.size()) << "event " << i;
            for (std::size_t f = 0; f < o1[i].fields.size(); ++f) {
                EXPECT_EQ(o1[i].fields[f].first, o2[i].fields[f].first) << "event " << i;
                EXPECT_TRUE(same_value(o1[i].fields[f].second, o2[i].fields[f].second))
                    << "event " << i << " field " << o1[i].fields[f].first;
            }
        }
    }
}

// ---- resume baselines -------------------------------------------------------

TEST(TraceModel, ResumedRunChargesOnlyTheDelta)
{
    const RunTraceModel model = feed({
        run_start("ga")
            .add("resumed", obs::FieldValue{true})
            .add("distinct_at_start", 67)
            .add("attempts_at_start", 67)
            .add("retries_at_start", 0),
        wave(10, 6),
        wave(10, 4),
        run_end(77),
    });
    ASSERT_EQ(model.runs.size(), 1u);
    const obs::RunTrace& run = model.runs[0];
    EXPECT_TRUE(run.resumed);
    EXPECT_EQ(run.distinct_in_trace(), 10u);
    EXPECT_TRUE(model.errors.empty());
    EXPECT_TRUE(model.check().empty());

    // Charging the restored evaluations again breaks the accounting.
    const RunTraceModel wrong = feed({
        run_start("ga").add("resumed", obs::FieldValue{true}).add("distinct_at_start", 67),
        wave(10, 10),
        TraceEvent{"run_end"}.add("distinct_evals", 87),
    });
    EXPECT_EQ(violation_texts(wrong),
              std::vector<std::string>{
                  "summed wave fresh 10 != run distinct_evals 87 - distinct_at_start 67"});
}

TEST(TraceModel, UnterminatedResumedRunNeverReportsAWrappedCount)
{
    const RunTraceModel model = feed({
        run_start("ga").add("resumed", obs::FieldValue{true}).add("distinct_at_start", 67),
        wave(10, 10),
    });
    ASSERT_EQ(model.runs.size(), 1u);
    EXPECT_FALSE(model.runs[0].terminated());
    EXPECT_EQ(model.runs[0].distinct_in_trace(), 0u);
    EXPECT_EQ(error_texts(model),
              std::vector<std::string>{"run 0 (ga, line 1): run_start without run_end"});
    EXPECT_TRUE(model.check().empty());  // already a structural error
}

// ---- job_summary ------------------------------------------------------------

TEST(TraceModel, JobSummaryAttachesToTheLastClosedRun)
{
    const TraceEvent job = TraceEvent{"job_summary"}
                               .add("workers", 2)
                               .add("distinct_evals", 5)
                               .add("fresh_evals", 5)
                               .add("store_hits", 0)
                               .add("retries", 0);
    const RunTraceModel model = feed({
        run_start("ga").add("workers", 2), wave(4, 4), run_end(4),
        run_start("ga").add("workers", 2), wave(5, 5), run_end(5),
        job,
    });
    ASSERT_EQ(model.runs.size(), 2u);
    EXPECT_FALSE(model.runs[0].job.has_value());
    ASSERT_TRUE(model.runs[1].job.has_value());
    EXPECT_EQ(model.runs[1].job->distinct_evals, 5u);
    EXPECT_TRUE(model.errors.empty());
    EXPECT_TRUE(model.check().empty());

    TraceEvent drifted = job;
    drifted.fields[1].second = std::uint64_t{4};  // distinct_evals
    EXPECT_EQ(violation_texts(feed({run_start("ga").add("workers", 2), wave(5, 5),
                                    run_end(5), drifted})),
              std::vector<std::string>{"job_summary distinct_evals 4 != run 5"});

    const RunTraceModel early = feed({run_start("ga"), job, wave(1, 1), run_end(1)});
    EXPECT_EQ(error_texts(early),
              std::vector<std::string>{"t.jsonl:2: job_summary without a completed run"});
}

// ---- lineage ----------------------------------------------------------------

TEST(TraceModel, Nsga2BornMustMatchTheGenerationsBirths)
{
    std::vector<TraceEvent> events{
        run_start("nsga2"),
        birth(0, 0, "init", "ff"),
        birth(1, 0, "init", "ff"),
        birth(2, 0, "crossover", "ax").add("pa", 0).add("pb", 1),
        TraceEvent{"generation"}.add("gen", 0).add("born", 2).add("uniform_draws", 0),
        wave(3, 3),
        run_end(3),
    };
    const std::vector<TraceViolation> violations = feed(events).check();
    ASSERT_FALSE(violations.empty());
    EXPECT_TRUE(violations[0].lineage);
    EXPECT_EQ(violations[0].text, "births without a lineage_summary");
    ASSERT_EQ(violations.size(), 2u);
    EXPECT_EQ(violations[1].text, "gen births vs born 1 != expected 2");
}

TEST(TraceModel, NonDenseBirthIdIsAStructuralError)
{
    const RunTraceModel model = feed({
        run_start("ga"),
        birth(0, 0, "init", "ff"),
        birth(1, 0, "init", "ff"),
        birth(3, 0, "init", "ff"),
        wave(3, 3),
        run_end(3),
    });
    EXPECT_EQ(error_texts(model),
              std::vector<std::string>{"t.jsonl:4: birth id 3 breaks the dense sequence"});
    EXPECT_EQ(model.errors[0].line, 4u);
    EXPECT_FALSE(model.runs[0].dense());
}

TEST(TraceModel, CyclicParentIsAStructuralError)
{
    const RunTraceModel model = feed({
        run_start("ga"),
        birth(0, 0, "init", "ff"),
        birth(1, 1, "mutation", "au").add("pa", 1),
        wave(2, 2),
        run_end(2),
    });
    EXPECT_EQ(error_texts(model),
              std::vector<std::string>{"t.jsonl:3: birth 1 has pa 1 >= its own id"});
}

TEST(TraceModel, EventsOutsideRunsAndBadBirthsAreStructuralErrors)
{
    const RunTraceModel model = feed({
        birth(0, 0, "init", "ff"),
        run_end(0),
        run_start("ga"),
        birth(0, 0, "clone", "ff"),
        birth(1, 0, "init", "fz"),
        wave(0, 0),
        run_end(0),
        TraceEvent{"checkpoint"},
    });
    EXPECT_EQ(error_texts(model), (std::vector<std::string>{
                                      "t.jsonl:1: birth outside any run",
                                      "t.jsonl:2: run_end without run_start",
                                      "t.jsonl:4: birth with unknown op 'clone'",
                                      "t.jsonl:5: birth with bad origin codes 'fz'",
                                      "t.jsonl:8: checkpoint outside any run",
                                  }));
    EXPECT_TRUE(model.runs[0].births.empty());
}

// ---- trace format v2 births records -----------------------------------------

TEST(TraceModel, BirthsRecordDecodesLikeBirthEvents)
{
    const RunTraceModel v2 = feed({
        run_start("ga"),
        births(0, 0, "ii", {k_null, k_null}, {k_null, k_null}, "ff ff"),
        births(2, 1, "ec", {1, 0}, {k_null, 1}, "- ax"),
        wave(4, 4),
        run_end(4),
    });
    const RunTraceModel v1 = feed({
        run_start("ga"),
        birth(0, 0, "init", "ff"),
        birth(1, 0, "init", "ff"),
        birth(2, 1, "elite", "-").add("pa", 1),
        birth(3, 1, "crossover", "ax").add("pa", 0).add("pb", 1),
        wave(4, 4),
        run_end(4),
    });
    EXPECT_TRUE(v2.errors.empty());
    EXPECT_EQ(v2.counts, v1.counts);
    EXPECT_EQ(v2.events, 7u);
    ASSERT_EQ(v2.runs[0].births.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(describe(v2.runs[0].births[i]), describe(v1.runs[0].births[i]));
}

TEST(TraceModel, BirthsColumnsOfUnequalLengthAreAStructuralError)
{
    const RunTraceModel model = feed({
        run_start("ga"),
        births(0, 0, "ii", {k_null}, {k_null, k_null}, "ff ff"),
        births(2, 0, "ii", {k_null, k_null}, {k_null, k_null}, "ff"),
        TraceEvent{"births"}.add("first", 4).add("ops", "i").add("origins", "ff"),
        births(5, 0, "i", {k_null}, {k_null}, "ff"),
        TraceEvent{"births"}.add("ops", "i"),
        wave(0, 0),
        run_end(0),
    });
    EXPECT_EQ(error_texts(model),
              (std::vector<std::string>{
                  "t.jsonl:2: births columns differ in length: ops 2, pa 1, pb 2, origins 2",
                  "t.jsonl:3: births columns differ in length: ops 2, pa 2, pb 2, origins 1",
                  "t.jsonl:4: births columns differ in length: ops 1, pa 0, pb 0, origins 1",
                  "t.jsonl:6: births record without a valid first id",
              }));
    ASSERT_EQ(model.runs[0].births.size(), 1u);
    EXPECT_EQ(model.runs[0].births[0].id, 5u);
}

TEST(TraceModel, BirthsParentThatIsNotAnIdIsAStructuralError)
{
    const RunTraceModel model = feed({
        run_start("ga"),
        births(0, 0, "ii", {k_null, k_null}, {k_null, k_null}, "ff ff"),
        births(2, 1, "mmmc", {0.5, -1, 1e300, 0}, {k_null, k_null, k_null, -0.0},
               "au au au ax"),
        wave(0, 0),
        run_end(0),
    });
    EXPECT_EQ(error_texts(model), (std::vector<std::string>{
                                      "t.jsonl:3: birth 2 has pa 0.5, not a birth id",
                                      "t.jsonl:3: birth 3 has pa -1, not a birth id",
                                      "t.jsonl:3: birth 4 has pa 1e+300, not a birth id",
                                      "t.jsonl:3: birth 5 has pb -0, not a birth id",
                                  }));
    EXPECT_EQ(model.runs[0].births.size(), 2u);
}

TEST(TraceModel, BirthsParentNotBelowItsChildIsAStructuralError)
{
    const RunTraceModel model = feed({
        run_start("ga"),
        births(0, 0, "im", {k_null, 1}, {k_null, k_null}, "ff au"),
        births(2, 1, "c", {0}, {7}, "ax"),
        wave(0, 0),
        run_end(0),
    });
    EXPECT_EQ(error_texts(model), (std::vector<std::string>{
                                      "t.jsonl:2: birth 1 has pa 1 >= its own id",
                                      "t.jsonl:3: birth 2 has pb 7 >= its own id",
                                  }));
}

TEST(TraceModel, BirthsUnknownOpCodeIsAStructuralError)
{
    const RunTraceModel model = feed({
        run_start("ga"),
        births(0, 0, "iI", {k_null, k_null}, {k_null, k_null}, "ff ff"),
        births(2, 0, "i", {k_null}, {k_null}, "fz"),
        wave(0, 0),
        run_end(0),
    });
    EXPECT_EQ(error_texts(model), (std::vector<std::string>{
                                      "t.jsonl:2: birth with unknown op 'I'",
                                      "t.jsonl:3: birth with bad origin codes 'fz'",
                                  }));
    EXPECT_EQ(model.runs[0].births.size(), 1u);
}

TEST(TraceModel, BirthsGapInTheIdSequenceIsAStructuralError)
{
    const RunTraceModel model = feed({
        run_start("ga"),
        births(0, 0, "ii", {k_null, k_null}, {k_null, k_null}, "ff ff"),
        births(3, 1, "m", {1}, {k_null}, "au"),
        births(4, 1, "m", {3}, {k_null}, "au"),
        wave(0, 0),
        run_end(0),
    });
    EXPECT_EQ(error_texts(model),
              std::vector<std::string>{
                  "t.jsonl:3: births first 3 breaks the dense sequence (expected 2)"});
    EXPECT_FALSE(model.runs[0].dense());
}

TEST(TraceModel, MixingBirthLayoutsInOneRunIsAStructuralError)
{
    const RunTraceModel model = feed({
        run_start("ga"),
        birth(0, 0, "init", "ff"),
        births(1, 0, "i", {k_null}, {k_null}, "ff"),
        wave(0, 0),
        run_end(0),
        run_start("ga"),
        births(0, 0, "i", {k_null}, {k_null}, "ff"),
        birth(1, 0, "init", "ff"),
        wave(0, 0),
        run_end(0),
    });
    EXPECT_EQ(error_texts(model),
              (std::vector<std::string>{
                  "t.jsonl:3: run mixes birth events (trace v1) and births records (v2)",
                  "t.jsonl:8: run mixes birth events (trace v1) and births records (v2)",
              }));
    EXPECT_EQ(model.runs[0].births.size(), 1u);
    EXPECT_EQ(model.runs[1].births.size(), 1u);
}

}  // namespace
}  // namespace nautilus
