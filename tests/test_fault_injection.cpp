#include "core/fault_injection.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/ga.hpp"
#include "core/local_search.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"
#include "fixtures.hpp"

namespace nautilus {
namespace {

TEST(FaultInjectionConfig, ValidationCatchesBadSettings)
{
    FaultInjectionConfig cfg;
    cfg.fail_rate = -0.1;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = FaultInjectionConfig{};
    cfg.hang_rate = 1.5;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = FaultInjectionConfig{};
    cfg.fail_rate = 0.6;
    cfg.hang_rate = 0.6;  // rates must sum to <= 1
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = FaultInjectionConfig{};
    cfg.hang_seconds = -1.0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    EXPECT_NO_THROW(FaultInjectionConfig{}.validate());
}

TEST(FaultInjectingEvaluator, FaultDecisionIsDeterministicPerGenomeAndAttempt)
{
    FaultInjectionConfig cfg;
    cfg.fail_rate = 0.5;
    cfg.seed = 99;
    const auto space = toy_space();
    Rng rng{1};

    // Two injectors with the same seed misbehave on exactly the same
    // (genome, attempt) pairs, regardless of call interleaving.
    FaultInjectingEvaluator a{sum_eval, cfg};
    FaultInjectingEvaluator b{sum_eval, cfg};
    for (int i = 0; i < 200; ++i) {
        const Genome g = Genome::random(space, rng);
        bool a_threw = false;
        bool b_threw = false;
        try {
            a.evaluate(g);
        }
        catch (const InjectedFault&) {
            a_threw = true;
        }
        try {
            b.evaluate(g);
        }
        catch (const InjectedFault&) {
            b_threw = true;
        }
        EXPECT_EQ(a_threw, b_threw);
    }
    EXPECT_EQ(a.injected_failures(), b.injected_failures());
    EXPECT_GT(a.injected_failures(), 0u);  // 50% over 200 draws
}

TEST(FaultInjectingEvaluator, TransientFaultsRedrawPerAttempt)
{
    FaultInjectionConfig cfg;
    cfg.fail_rate = 0.5;
    cfg.seed = 7;
    cfg.permanent = false;
    FaultInjectingEvaluator injector{sum_eval, cfg};
    const auto space = toy_space();
    Rng rng{3};
    // With transient faults a design point that fails on attempt 1 usually
    // succeeds within a handful of retries; find a failing point and retry it.
    for (int i = 0; i < 100; ++i) {
        const Genome g = Genome::random(space, rng);
        bool first_failed = false;
        try {
            injector.evaluate(g);
        }
        catch (const InjectedFault&) {
            first_failed = true;
        }
        if (!first_failed) continue;
        bool recovered = false;
        for (int attempt = 0; attempt < 20 && !recovered; ++attempt) {
            try {
                injector.evaluate(g);
                recovered = true;
            }
            catch (const InjectedFault&) {
            }
        }
        EXPECT_TRUE(recovered);
        return;
    }
    FAIL() << "no injected failure in 100 draws at fail_rate 0.5";
}

TEST(FaultInjectingEvaluator, PermanentFaultsFailEveryAttempt)
{
    FaultInjectionConfig cfg;
    cfg.fail_rate = 0.5;
    cfg.seed = 7;
    cfg.permanent = true;
    FaultInjectingEvaluator injector{sum_eval, cfg};
    const auto space = toy_space();
    Rng rng{3};
    for (int i = 0; i < 100; ++i) {
        const Genome g = Genome::random(space, rng);
        bool first_failed = false;
        try {
            injector.evaluate(g);
        }
        catch (const InjectedFault&) {
            first_failed = true;
        }
        if (!first_failed) continue;
        // Permanent: every retry of the same genome fails too.
        for (int attempt = 0; attempt < 5; ++attempt)
            EXPECT_THROW(injector.evaluate(g), InjectedFault);
        return;
    }
    FAIL() << "no injected failure in 100 draws at fail_rate 0.5";
}

TEST(FaultInjectingEvaluator, FailOnNthCallTripsExactlyOnce)
{
    FaultInjectionConfig cfg;
    cfg.fail_on_nth_call = 3;
    FaultInjectingEvaluator injector{sum_eval, cfg};
    const auto space = toy_space();
    Rng rng{5};
    for (int call = 1; call <= 6; ++call) {
        const Genome g = Genome::random(space, rng);
        if (call == 3) EXPECT_THROW(injector.evaluate(g), InjectedFault);
        else EXPECT_NO_THROW(injector.evaluate(g));
    }
    EXPECT_EQ(injector.injected_failures(), 1u);
}

TEST(FaultInjectingEvaluator, FlakyValuesAreDeterministicallyPerturbed)
{
    FaultInjectionConfig cfg;
    cfg.flaky_value_rate = 1.0;  // every attempt is flaky
    cfg.seed = 11;
    FaultInjectingEvaluator injector{sum_eval, cfg};
    const Genome g{std::vector<std::uint32_t>{4, 4, 4, 4}};
    const Evaluation clean = sum_eval(g);
    const Evaluation flaky1 = injector.evaluate(g);
    EXPECT_NE(flaky1.value, clean.value);
    // The perturbation is a pure hash of (seed, key, attempt): a second
    // injector replays it exactly.
    FaultInjectingEvaluator replay{sum_eval, cfg};
    EXPECT_DOUBLE_EQ(replay.evaluate(g).value, flaky1.value);
    EXPECT_EQ(injector.injected_flaky(), 1u);
}

// The ISSUE's integration scenario: a full GA run against a 10% fail / 2%
// hang evaluator with retries + quarantine completes, and the guard's
// attempt accounting closes exactly (attempts == distinct evals + retries).
TEST(FaultInjectionIntegration, GaRunCompletesUnderChaosAndAccountingCloses)
{
    const auto space = toy_space();
    FaultInjectionConfig cfg;
    cfg.fail_rate = 0.10;
    cfg.hang_rate = 0.02;
    cfg.hang_seconds = 0.002;  // keep the suite fast; no watchdog configured
    cfg.seed = 0xc4a05;
    FaultInjectingEvaluator injector{sum_eval, cfg};

    GaConfig ga;
    ga.generations = 20;
    ga.seed = 9;
    ga.fault.retry.max_attempts = 4;
    ga.fault.tolerate_failures = true;
    ga.fault_penalty = Evaluation{false, 0.0};

    const GaEngine engine{space, ga, Direction::maximize, injector.as_eval_fn(),
                          HintSet::none(space)};
    const RunResult r = engine.run();
    EXPECT_EQ(r.history.size(), 20u);       // the run was not aborted
    EXPECT_TRUE(r.best_eval.feasible);      // chaos did not erase the search
    EXPECT_GT(r.fault.failures, 0u);        // chaos actually fired
    EXPECT_EQ(r.fault.attempts, r.distinct_evals + r.fault.retries);
    EXPECT_GE(injector.injected_failures(), r.fault.failures);
}

TEST(FaultInjectionIntegration, ChaoticGaRunIsDeterministicForFixedSeeds)
{
    const auto space = toy_space();
    const auto run_once = [&] {
        FaultInjectionConfig cfg;
        cfg.fail_rate = 0.10;
        cfg.seed = 0xc4a05;
        FaultInjectingEvaluator injector{sum_eval, cfg};
        GaConfig ga;
        ga.generations = 15;
        ga.seed = 21;
        ga.fault.retry.max_attempts = 3;
        ga.fault.tolerate_failures = true;
        const GaEngine engine{space, ga, Direction::maximize, injector.as_eval_fn(),
                              HintSet::none(space)};
        return engine.run();
    };
    const RunResult a = run_once();
    const RunResult b = run_once();
    EXPECT_EQ(a.distinct_evals, b.distinct_evals);
    EXPECT_EQ(a.fault.attempts, b.fault.attempts);
    EXPECT_EQ(a.fault.retries, b.fault.retries);
    EXPECT_EQ(a.fault.quarantined, b.fault.quarantined);
    EXPECT_DOUBLE_EQ(a.best_eval.value, b.best_eval.value);
    ASSERT_EQ(a.final_population.size(), b.final_population.size());
    for (std::size_t i = 0; i < a.final_population.size(); ++i)
        EXPECT_EQ(a.final_population[i].genes(), b.final_population[i].genes());
}

TEST(FaultInjectionIntegration, ChaoticGaRunIsWorkerCountIndependent)
{
    const auto space = toy_space();
    const auto run_with_workers = [&](std::size_t workers) {
        FaultInjectionConfig cfg;
        cfg.fail_rate = 0.10;
        cfg.seed = 0xc4a05;
        FaultInjectingEvaluator injector{sum_eval, cfg};
        GaConfig ga;
        ga.generations = 15;
        ga.seed = 21;
        ga.eval_workers = workers;
        ga.fault.retry.max_attempts = 3;
        ga.fault.tolerate_failures = true;
        const GaEngine engine{space, ga, Direction::maximize, injector.as_eval_fn(),
                              HintSet::none(space)};
        return engine.run();
    };
    const RunResult serial = run_with_workers(1);
    const RunResult parallel = run_with_workers(4);
    EXPECT_EQ(serial.distinct_evals, parallel.distinct_evals);
    EXPECT_EQ(serial.fault.attempts, parallel.fault.attempts);
    EXPECT_EQ(serial.fault.quarantined, parallel.fault.quarantined);
    EXPECT_DOUBLE_EQ(serial.best_eval.value, parallel.best_eval.value);
    EXPECT_EQ(serial.final_rng_state, parallel.final_rng_state);
}

// SA and HC share the GA's evaluation pipeline, so their run_end carries
// the same fault block and trace_inspect --check must reconcile
// attempts == distinct + retries for them too.  The traces are handed to the
// real trace_inspect binary, exactly as CI inspects a chaos run.
TEST(FaultInjectionIntegration, LocalSearchRunEndReconcilesUnderTraceInspect)
{
    const auto space = toy_space();
    for (const char* engine : {"sa", "hc"}) {
        SCOPED_TRACE(engine);
        FaultInjectionConfig cfg;
        cfg.fail_rate = 0.25;
        cfg.seed = 0xc4a05;
        FaultInjectingEvaluator injector{sum_eval, cfg};
        const std::string path =
            ::testing::TempDir() + "nautilus_fault_" + engine + ".trace.jsonl";
        std::remove(path.c_str());
        obs::Instrumentation inst;
        inst.tracer = obs::Tracer{std::make_shared<obs::JsonlFileSink>(path)};
        FaultPolicy fault;
        fault.retry.max_attempts = 2;
        fault.tolerate_failures = true;

        if (std::string{engine} == "sa") {
            AnnealingConfig sa;
            sa.max_distinct_evals = 80;
            sa.eval_workers = 2;
            sa.fault = fault;
            sa.obs = inst;
            (void)SimulatedAnnealing{space, sa, Direction::maximize, injector.as_eval_fn(),
                                     HintSet::none(space)}
                .run(5);
        }
        else {
            HillClimbConfig hc;
            hc.max_distinct_evals = 80;
            hc.eval_workers = 2;
            hc.fault = fault;
            hc.obs = inst;
            (void)HillClimber{space, hc, Direction::maximize, injector.as_eval_fn(),
                              HintSet::none(space)}
                .run(5);
        }
        inst.tracer.sink()->flush();

        obs::TraceReader reader{path};
        std::optional<obs::TraceEvent> run_end;
        while (reader.next())
            if (reader.event().type == "run_end") run_end = reader.event();
        ASSERT_EQ(reader.parse_errors(), 0u);
        ASSERT_TRUE(run_end.has_value());
        const auto attempts = run_end->unsigned_int("attempts");
        const auto retries = run_end->unsigned_int("retries");
        const auto distinct = run_end->unsigned_int("distinct_evals");
        ASSERT_TRUE(attempts && retries && distinct) << "run_end lacks the fault block";
        EXPECT_GT(*retries, 0u);  // chaos actually fired
        EXPECT_GT(run_end->unsigned_int("eval_failures").value_or(0), 0u);
        EXPECT_EQ(*attempts, *distinct + *retries);

        const std::string command =
            std::string{NAUTILUS_TRACE_INSPECT} + " " + path + " --check";
        EXPECT_EQ(std::system(command.c_str()), 0) << command;
    }
}

}  // namespace
}  // namespace nautilus
