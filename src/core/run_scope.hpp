#pragma once
// RunScope: one run's bookkeeping around an engine's search loop, for all
// five engines (DESIGN.md section 6).  It owns the run's EvalPipeline, its
// counters, progress, run_start and run_end, the run span, the lineage
// recorder, and the early stops: the generation boundary of GA and NSGA-II
// (checkpoint, halt_at_generation, cancel) and the budget check of random
// search, SA and HC (distinct budget, call cap, cancel).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/engine_base.hpp"
#include "core/eval_pipeline.hpp"
#include "obs/obs.hpp"

namespace nautilus {

template <typename Value>
class RunScope {
public:
    using Fn = typename EvalPipeline<Value>::Fn;

    // `penalty` and `arity` as for EvalPipeline.
    RunScope(const char* engine, const RunConfig& config, Fn fn, Value penalty = Value{},
             std::size_t arity = 1)
        : pipeline{std::move(fn), config, std::move(penalty), arity},
          engine_{engine},
          config_{config}
    {
    }

    // GA and NSGA-II: overload resolution picks this constructor for their
    // configs, and the scope also counts generations and owns the boundary.
    RunScope(const char* engine, const GenerationalConfig& config, Fn fn,
             Value penalty = Value{}, std::size_t arity = 1)
        : RunScope{engine, static_cast<const RunConfig&>(config), std::move(fn),
                   std::move(penalty), arity}
    {
        generational_ = &config;
    }

    RunScope(const RunScope&) = delete;
    RunScope& operator=(const RunScope&) = delete;

    EvalPipeline<Value> pipeline;

    const obs::Tracer& tracer() const { return config_.obs.tracer; }
    std::size_t start_generation() const { return start_; }

    // Resume from `cp`'s generation with its evaluation state.  Before open().
    template <typename Checkpoint>
    void restore(const Checkpoint& cp)
    {
        pipeline.restore(cp);
        start_ = cp.generation;
        resumed_ = true;
    }

    // Count the run, start progress over `units` (generations or the
    // distinct budget), emit run_start -- engine, seed, the engine's
    // `fields(ev)`, a resumed run's starting counts, the run tags -- and
    // open the run span.
    template <typename Fields>
    void open(std::uint64_t seed, std::size_t units, Fields&& fields)
    {
        seed_ = seed;
        if (obs::MetricsRegistry* reg = config_.obs.registry()) {
            reg->counter(name(".runs")).add();
            if (generational_ != nullptr) {
                generations_ = &reg->counter(name(".generations"));
                if (!generational_->checkpoint_path.empty())
                    checkpoint_writes_ = &reg->counter("checkpoint.writes");
            }
        }
        if (obs::ProgressTracker* p = config_.obs.progress_tracker())
            p->on_run_start(engine_, units, start_);
        if (!tracer().enabled()) return;
        obs::TraceEvent ev{"run_start"};
        ev.add("engine", engine_).add("seed", std::size_t{seed});
        fields(ev);
        if (resumed_) {
            // So trace_inspect can reconcile the part charged in this trace.
            EvalTotals t;
            pipeline.fill(t);
            ev.add("resumed", obs::FieldValue{true})
                .add("start_generation", start_)
                .add("distinct_at_start", t.distinct_evals)
                .add("attempts_at_start", std::size_t{t.fault.attempts})
                .add("retries_at_start", std::size_t{t.fault.retries});
        }
        for (const auto& [key, value] : config_.obs.run_tags) ev.add(key, value);
        tracer().emit(std::move(ev));
        span_.emplace(tracer(), name(".run"));
    }

    // The lineage recorder (DESIGN.md section 11) when tracing is on or a
    // live tracker is attached, else null.  It consumes no RNG draws.
    obs::LineageRecorder* record_lineage()
    {
        if (!lineage_ && (tracer().enabled() || config_.obs.lineage_tracker() != nullptr))
            lineage_.emplace(&tracer(), config_.obs.lineage_tracker(), engine_);
        return lineage_ ? &*lineage_ : nullptr;
    }

    // Progress: `units` done and the best so far, when there is one.
    void report(std::size_t units, const double* best = nullptr)
    {
        if (obs::ProgressTracker* p = config_.obs.progress_tracker()) {
            p->on_units(units);
            if (best != nullptr) p->on_best(*best);
        }
    }

    void end_generation(std::size_t gen, const double* best = nullptr)
    {
        if (generations_ != nullptr) generations_->add();
        report(gen + 1, best);
    }

    // The top of generation `gen` in GA and NSGA-II.  Past the start it
    // writes a checkpoint when checkpoint_path is set -- `capture(cp)` adds
    // the engine's state and config_hash -- and returns true when the run
    // halts here: at halt_at_generation or on a cancel.  Halting only past
    // the start makes every cancel/resubmit cycle advance.
    template <typename Checkpoint, typename Capture>
    bool boundary(std::size_t gen, Capture&& capture)
    {
        if (gen <= start_) return false;
        const GenerationalConfig& c = *generational_;
        halted_ = (c.halt_at_generation != 0 && gen == c.halt_at_generation) || c.cancelled();
        if (c.checkpoint_path.empty()) return halted_;
        Checkpoint cp;
        capture(cp);
        cp.seed = seed_;
        cp.generation = gen;
        pipeline.snapshot(cp);
        save_checkpoint(c.checkpoint_path, cp);
        if (checkpoint_writes_ != nullptr) checkpoint_writes_->add();
        if (tracer().enabled()) {
            obs::TraceEvent ev{"checkpoint"};
            ev.add("engine", engine_)
                .add("path", c.checkpoint_path.c_str())
                .add("generation", gen)
                .add("cache", cp.cache.size())
                .add("quarantined", cp.quarantine.size());
            tracer().emit(std::move(ev));
        }
        return halted_;
    }

    // The loop condition of random search, SA and HC: the distinct budget
    // and its call cap have room and no cancel was requested (which halts).
    bool budget_left(const BudgetedConfig& c)
    {
        if (pipeline.distinct() >= c.max_distinct_evals || pipeline.calls() >= c.max_calls())
            return false;
        halted_ = c.cancelled();
        return !halted_;
    }

    // Finish lineage with `winners`, end progress, write the run's
    // EvalTotals into `totals` when it is non-null, and emit run_end: the
    // eval schema every engine shares, around the engine's `fields(ev)`.
    template <typename Fields>
    void close(EvalTotals* totals, std::span<const std::uint64_t> winners, Fields&& fields)
    {
        if (lineage_) lineage_->finish(winners);
        if (obs::ProgressTracker* p = config_.obs.progress_tracker()) p->on_run_end();
        EvalTotals t;
        pipeline.fill(t);
        t.halted = halted_;
        t.start_generation = start_;
        if (totals != nullptr) *totals = t;
        if (tracer().enabled()) {
            obs::TraceEvent ev{"run_end"};
            ev.add("engine", engine_)
                .add("distinct_evals", t.distinct_evals)
                .add("total_calls", t.total_eval_calls)
                .add("inflight_waits", pipeline.inflight_waits());
            fields(ev);
            ev.add("eval_seconds", obs::FieldValue{t.eval_seconds})
                .add("attempts", std::size_t{t.fault.attempts})
                .add("retries", std::size_t{t.fault.retries})
                .add("eval_failures", std::size_t{t.fault.failures})
                .add("eval_timeouts", std::size_t{t.fault.timeouts})
                .add("quarantined", std::size_t{t.fault.quarantined})
                .add("penalties", std::size_t{t.fault.penalties});
            if (config_.store != nullptr)
                ev.add("store_hits", t.store_hits).add("store_misses", t.store_misses);
            tracer().emit(std::move(ev));
        }
    }

private:
    std::string name(const char* suffix) const { return std::string{engine_} + suffix; }

    const char* engine_;
    const RunConfig& config_;
    const GenerationalConfig* generational_ = nullptr;
    obs::Counter* generations_ = nullptr;
    obs::Counter* checkpoint_writes_ = nullptr;
    std::size_t start_ = 0;
    bool resumed_ = false;
    std::uint64_t seed_ = 0;
    bool halted_ = false;
    std::optional<obs::LineageRecorder> lineage_;
    std::optional<obs::ScopedTimer> span_;  // declared last: closes first
};

// A checkpoint resumes only the search that wrote it: `matches` compares its
// config hash with the engine's fingerprint (space shape, determinism-
// relevant config, hints, seed).
inline void check_resume(bool matches, const char* who, const std::string& path)
{
    if (!matches)
        throw std::runtime_error(std::string{who} + "::resume: checkpoint " + path +
                                 " was written with a different space/config/hints/seed");
}

}  // namespace nautilus
