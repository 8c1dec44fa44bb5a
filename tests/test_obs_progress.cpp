// ProgressTracker tests: lifecycle accounting, JSON/heartbeat rendering,
// and end-to-end agreement between the tracker and engine run results.

#include "obs/progress.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "core/ga.hpp"
#include "core/local_search.hpp"
#include "core/random_search.hpp"
#include "obs/obs.hpp"
#include "fixtures.hpp"

using namespace nautilus;
using namespace nautilus::obs;

namespace {

TEST(ObsProgress, LifecycleAccounting)
{
    ProgressTracker tracker;
    ProgressSnapshot snap = tracker.snapshot();
    EXPECT_FALSE(snap.running);
    EXPECT_EQ(snap.runs_started, 0u);
    EXPECT_TRUE(snap.engine.empty());

    tracker.on_run_start("ga", 80);
    tracker.on_units(12);
    tracker.on_best(123.5);
    tracker.on_wave(10, 7, 0.25);
    tracker.on_wave(10, 3, 0.25);

    snap = tracker.snapshot();
    EXPECT_TRUE(snap.running);
    EXPECT_EQ(snap.engine, "ga");
    EXPECT_EQ(snap.runs_started, 1u);
    EXPECT_EQ(snap.runs_completed, 0u);
    EXPECT_EQ(snap.units_done, 12u);
    EXPECT_EQ(snap.units_total, 80u);
    EXPECT_TRUE(snap.have_best);
    EXPECT_DOUBLE_EQ(snap.best, 123.5);
    EXPECT_EQ(snap.distinct_evals, 10u);
    EXPECT_EQ(snap.eval_calls, 20u);
    EXPECT_EQ(snap.cache_hits, 10u);
    EXPECT_DOUBLE_EQ(snap.cache_hit_rate(), 0.5);
    EXPECT_DOUBLE_EQ(snap.eval_seconds, 0.5);
    EXPECT_GT(snap.evals_per_second(), 0.0);

    tracker.on_run_end();
    snap = tracker.snapshot();
    EXPECT_FALSE(snap.running);
    EXPECT_EQ(snap.runs_completed, 1u);
    EXPECT_FALSE(snap.eta_seconds().has_value());  // not running => no ETA
}

TEST(ObsProgress, EtaRequiresMeasurablePace)
{
    ProgressSnapshot snap;
    snap.running = true;
    snap.units_total = 100;
    snap.units_done = 0;
    snap.run_elapsed_seconds = 2.0;
    EXPECT_FALSE(snap.eta_seconds().has_value());  // no units done yet

    snap.units_done = 25;
    const auto eta = snap.eta_seconds();
    ASSERT_TRUE(eta.has_value());
    EXPECT_DOUBLE_EQ(*eta, 6.0);  // 2s for 25 units => 6s for remaining 75

    // Resumed run: pace is computed over the units done *here*.
    snap.units_at_start = 20;
    const auto resumed_eta = snap.eta_seconds();
    ASSERT_TRUE(resumed_eta.has_value());
    EXPECT_DOUBLE_EQ(*resumed_eta, 30.0);  // 2s for 5 units => 30s for 75

    snap.units_done = snap.units_total;
    EXPECT_FALSE(snap.eta_seconds().has_value());  // finished
}

TEST(ObsProgress, JsonRendering)
{
    ProgressSnapshot snap;
    snap.engine = "ga";
    snap.running = true;
    snap.runs_started = 1;
    snap.units_done = 12;
    snap.units_total = 80;
    snap.have_best = true;
    snap.best = 123.5;
    snap.distinct_evals = 340;
    snap.eval_calls = 800;
    snap.cache_hits = 460;

    const std::string json = to_json(snap);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"engine\":\"ga\""), std::string::npos);
    EXPECT_NE(json.find("\"running\":true"), std::string::npos);
    EXPECT_NE(json.find("\"generation\":12"), std::string::npos);
    EXPECT_NE(json.find("\"generations_total\":80"), std::string::npos);
    EXPECT_NE(json.find("\"best\":123.5"), std::string::npos);
    EXPECT_NE(json.find("\"distinct_evals\":340"), std::string::npos);
    EXPECT_NE(json.find("\"cache_hit_rate\":0.575"), std::string::npos);

    snap.have_best = false;
    EXPECT_NE(to_json(snap).find("\"best\":null"), std::string::npos);
}

TEST(ObsProgress, ProgressLineFormatting)
{
    ProgressSnapshot snap;
    snap.engine = "ga";
    snap.running = true;
    snap.runs_started = 1;
    snap.units_done = 12;
    snap.units_total = 80;
    snap.have_best = true;
    snap.best = 123.5;
    snap.distinct_evals = 340;
    snap.eval_calls = 800;
    snap.cache_hits = 460;
    snap.run_elapsed_seconds = 4.0;

    const std::string line = format_progress_line(snap);
    EXPECT_NE(line.find("ga gen 12/80"), std::string::npos);
    EXPECT_NE(line.find("best 123.5000"), std::string::npos);
    EXPECT_NE(line.find("evals 340 (85.0/s, 57.5% cached)"), std::string::npos);
    EXPECT_NE(line.find("eta "), std::string::npos);

    snap.running = false;
    snap.units_done = snap.units_total;
    EXPECT_NE(format_progress_line(snap).find("done"), std::string::npos);
}

// A GA run wired with a progress tracker leaves the tracker in exact
// agreement with the RunResult -- the /status acceptance contract.
TEST(ObsProgress, GaRunPopulatesTracker)
{
    const ParameterSpace space = toy_space();
    GaConfig cfg;
    cfg.generations = 12;
    cfg.seed = 2015;
    cfg.obs.progress = std::make_shared<ProgressTracker>();
    const GaEngine engine{space, cfg, Direction::maximize, sum_eval,
                          HintSet::none(space)};
    const RunResult result = engine.run();

    const ProgressSnapshot snap = cfg.obs.progress->snapshot();
    EXPECT_EQ(snap.engine, "ga");
    EXPECT_FALSE(snap.running);
    EXPECT_EQ(snap.runs_started, 1u);
    EXPECT_EQ(snap.runs_completed, 1u);
    EXPECT_EQ(snap.units_done, result.history.size());
    EXPECT_EQ(snap.units_total, cfg.generations);
    EXPECT_EQ(snap.distinct_evals, result.distinct_evals);
    EXPECT_EQ(snap.eval_calls, result.total_eval_calls);
    EXPECT_EQ(snap.cache_hits, result.total_eval_calls - result.distinct_evals);
    ASSERT_TRUE(result.best_eval.feasible);
    EXPECT_TRUE(snap.have_best);
    EXPECT_DOUBLE_EQ(snap.best, result.best_eval.value);
}

// Float formatting is unified through obs/format.hpp: /status must render
// `best` with the exact byte sequence the run_end trace event carries, even
// for doubles with no short decimal form.
TEST(ObsProgress, StatusBestMatchesRunEndRenderingBitForBit)
{
    // Golden: the classic non-representable sum renders with full round-trip
    // precision on both surfaces.
    const double awkward = 0.1 + 0.2;
    ProgressSnapshot golden;
    golden.have_best = true;
    golden.best = awkward;
    EXPECT_NE(to_json(golden).find("\"best\":0.30000000000000004"),
              std::string::npos);
    TraceEvent golden_end{"run_end"};
    golden_end.add("best", FieldValue{awkward});
    EXPECT_NE(to_jsonl(golden_end).find("\"best\":0.30000000000000004"),
              std::string::npos);

    // End to end: a traced GA run whose best value carries an awkward
    // fraction must render identically in the trace and in /status JSON.
    const ParameterSpace space = toy_space();
    GaConfig cfg;
    cfg.generations = 8;
    cfg.seed = 2015;
    auto sink = std::make_shared<MemorySink>();
    cfg.obs.tracer = Tracer{sink};
    cfg.obs.progress = std::make_shared<ProgressTracker>();
    const GaEngine engine{space, cfg, Direction::maximize,
                          [](const Genome& g) {
                              const Evaluation e = sum_eval(g);
                              return Evaluation{true, e.value + 0.1};
                          },
                          HintSet::none(space)};
    engine.run();

    const auto token_after = [](const std::string& text, const std::string& key) {
        const std::size_t at = text.find(key);
        EXPECT_NE(at, std::string::npos) << key << " in " << text;
        const std::size_t start = at + key.size();
        return text.substr(start, text.find_first_of(",}", start) - start);
    };
    const auto ends = sink->events_of("run_end");
    ASSERT_FALSE(ends.empty());
    const std::string trace_best = token_after(to_jsonl(ends.back()), "\"best\":");
    const std::string status_best =
        token_after(to_json(cfg.obs.progress->snapshot()), "\"best\":");
    EXPECT_EQ(trace_best, status_best);
    EXPECT_NE(trace_best.find('.'), std::string::npos);  // the 0.1 survived
}

// The tracker result must not depend on the worker count (same contract as
// the rest of the evaluation pipeline).
TEST(ObsProgressConcurrency, TrackerCountsAreWorkerCountIndependent)
{
    ProgressSnapshot snaps[2];
    const std::size_t workers[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        const ParameterSpace space = toy_space();
        GaConfig cfg;
        cfg.generations = 12;
        cfg.seed = 2015;
        cfg.eval_workers = workers[i];
        cfg.obs.progress = std::make_shared<ProgressTracker>();
        const GaEngine engine{space, cfg, Direction::maximize, sum_eval,
                              HintSet::none(space)};
        engine.run();
        snaps[i] = cfg.obs.progress->snapshot();
    }
    EXPECT_EQ(snaps[0].distinct_evals, snaps[1].distinct_evals);
    EXPECT_EQ(snaps[0].eval_calls, snaps[1].eval_calls);
    EXPECT_EQ(snaps[0].cache_hits, snaps[1].cache_hits);
    EXPECT_EQ(snaps[0].units_done, snaps[1].units_done);
    EXPECT_DOUBLE_EQ(snaps[0].best, snaps[1].best);
}

// Budgeted engines report distinct evaluations as their progress unit.
TEST(ObsProgress, BudgetedEnginesReportEvalUnits)
{
    const ParameterSpace space = toy_space();

    RandomSearchConfig rnd;
    rnd.max_distinct_evals = 40;
    rnd.obs.progress = std::make_shared<ProgressTracker>();
    RandomSearch{space, rnd, Direction::maximize, sum_eval}.run(7);
    ProgressSnapshot snap = rnd.obs.progress->snapshot();
    EXPECT_EQ(snap.engine, "random");
    EXPECT_EQ(snap.units_total, 40u);
    EXPECT_EQ(snap.units_done, snap.distinct_evals);
    EXPECT_EQ(snap.runs_completed, 1u);

    HillClimbConfig hc;
    hc.max_distinct_evals = 30;
    hc.obs.progress = std::make_shared<ProgressTracker>();
    HillClimber{space, hc, Direction::maximize, sum_eval, HintSet::none(space)}.run(7);
    snap = hc.obs.progress->snapshot();
    EXPECT_EQ(snap.engine, "hc");
    EXPECT_EQ(snap.units_done, snap.distinct_evals);
    EXPECT_GE(snap.units_done, 30u);
}

TEST(ObsProgress, HeartbeatWritesPeriodicLines)
{
    auto tracker = std::make_shared<ProgressTracker>();
    std::ostringstream out;
    ProgressHeartbeat heartbeat{tracker, 0.02, &out};

    // Quiet until a run starts.
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    tracker->on_run_start("ga", 10);
    tracker->on_units(3);
    tracker->on_wave(8, 8, 0.01);
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    heartbeat.stop();

    const std::string text = out.str();
    EXPECT_NE(text.find("[nautilus] ga gen 3/10"), std::string::npos);
}

TEST(ObsProgress, HeartbeatStopIsIdempotent)
{
    auto tracker = std::make_shared<ProgressTracker>();
    std::ostringstream out;
    ProgressHeartbeat heartbeat{tracker, 10.0, &out};
    heartbeat.stop();
    heartbeat.stop();
    EXPECT_TRUE(out.str().empty());
}

}  // namespace
