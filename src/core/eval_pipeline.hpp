#pragma once
// The evaluation pipeline every search engine runs its design points through.
//
// One instance per run owns the whole stack, outermost first (DESIGN.md
// section 6):
//
//   BatchEvaluator         worker pool; fans a wave out, results in order
//   BasicCachingEvaluator  memo; charges one distinct evaluation per miss
//   store tier             persistent EvalStore lookup / write-back
//   FaultTolerantEvaluator retry, watchdog, quarantine
//   EvalFn                 the model, dataset or CAD flow
//
// The store sits below the memo, so a store hit still charges a distinct
// evaluation and warm runs reproduce cold runs bit-for-bit.  The guard sits
// below the store, so a penalized outcome -- per-run fault policy, not a
// property of the design -- is never written back.
//
// Engines keep breeding, selection and their own events; the pipeline owns
// the evaluation accounting they all share: checkpoint snapshot/restore, the
// resume fields of run_start, the eval block of run_end (one schema for all
// five engines) and the end-of-run totals.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>

#include "core/batch_evaluator.hpp"
#include "core/eval_store.hpp"
#include "core/evaluator.hpp"
#include "core/fault.hpp"
#include "core/fitness.hpp"
#include "obs/trace.hpp"

namespace nautilus {

// End-of-run evaluation accounting.  The field names match RunResult and
// MultiObjectiveResult, so EvalPipeline::fill() writes any of the three.
struct EvalTotals {
    std::size_t distinct_evals = 0;    // memo misses: the paper's cost
    std::size_t total_eval_calls = 0;  // including memo hits
    double eval_seconds = 0.0;         // wall-clock inside evaluation waves
    std::size_t eval_workers = 1;
    FaultCounters fault;               // attempts == distinct - store_hits + retries
    std::size_t store_hits = 0;        // memo misses answered by the store
    std::size_t store_misses = 0;      // memo misses paid fresh
};

// `Value` is Evaluation for the scalar engines and
// std::optional<std::vector<double>> (one value per objective, nullopt =
// infeasible) for NSGA-II.
template <typename Value>
class EvalPipeline {
public:
    using Fn = std::function<Value(const Genome&)>;

    // `config` is the engine's config: it supplies fault, obs, eval_workers,
    // store and store_namespace, plus fault_penalty and eval_observer where
    // the engine has them (the multi-objective penalty is nullopt).
    // `arity` is the value count a stored feasible record must carry.
    template <typename Config>
    EvalPipeline(Fn fn, const Config& config, std::size_t arity = 1)
        : guard_{std::move(fn), config.fault, penalty_of(config)},
          store_{config.store.get()},
          store_ns_{config.store_namespace},
          arity_{arity},
          memo_{[this](const Genome& g) { return tier(g); }},
          batch_{config.eval_workers}
    {
        guard_.set_instrumentation(config.obs);
        if constexpr (requires { config.eval_observer; })
            batch_.set_observer(config.eval_observer);
        batch_.set_instrumentation(config.obs);
    }

    EvalPipeline(const EvalPipeline&) = delete;
    EvalPipeline& operator=(const EvalPipeline&) = delete;

    // Evaluate genomes[i] into out[i], fanned out across the worker pool.
    void evaluate_wave(std::span<const Genome> genomes, std::span<Value> out)
    {
        batch_.evaluate(memo_, genomes, out);
    }

    Value evaluate(const Genome& genome)
    {
        Value out{};
        evaluate_wave(std::span<const Genome>{&genome, 1}, std::span<Value>{&out, 1});
        return out;
    }

    std::size_t distinct() const { return memo_.distinct_evaluations(); }

    // Copy the evaluation state into a GaCheckpoint or Nsga2Checkpoint
    // (cache, distinct, calls, quarantine, fault).  Between waves only.
    template <typename Checkpoint>
    void snapshot(Checkpoint& cp) const
    {
        typename BasicCachingEvaluator<Value>::Snapshot snap = memo_.snapshot();
        cp.cache = std::move(snap.entries);
        cp.distinct = snap.distinct;
        cp.calls = snap.calls;
        cp.quarantine = guard_.quarantined_keys();
        cp.fault = guard_.counters();
    }

    // Inverse of snapshot(); also records the checkpoint's generation for
    // add_resume_fields().  Before the first wave only.
    template <typename Checkpoint>
    void restore(const Checkpoint& cp)
    {
        typename BasicCachingEvaluator<Value>::Snapshot snap;
        snap.entries = cp.cache;
        snap.distinct = cp.distinct;
        snap.calls = cp.calls;
        memo_.restore(snap);
        guard_.restore(cp.quarantine, cp.fault);
        resumed_at_ = cp.generation;
    }

    // run_start provenance of a resumed run (nothing on a fresh run):
    // resumed, start_generation and the restored distinct/attempt/retry
    // counts, so trace_inspect can reconcile the part charged in this trace.
    void add_resume_fields(obs::TraceEvent& ev) const
    {
        if (!resumed_at_) return;
        const FaultCounters fc = guard_.counters();
        ev.add("resumed", obs::FieldValue{true})
            .add("start_generation", *resumed_at_)
            .add("distinct_at_start", memo_.distinct_evaluations())
            .add("attempts_at_start", std::size_t{fc.attempts})
            .add("retries_at_start", std::size_t{fc.retries});
    }

    // Emit run_end with the eval schema shared by every engine: engine,
    // distinct_evals, total_calls, inflight_waits, then the engine's own
    // fields (`engine_fields(ev)`), then eval_seconds, the fault block
    // (attempts, retries, eval_failures, eval_timeouts, quarantined,
    // penalties) and, when a store is attached, store_hits/store_misses.
    template <typename EngineFields>
    void emit_run_end(const char* engine, EngineFields&& engine_fields) const
    {
        const obs::Tracer& tracer = batch_.instrumentation().tracer;
        if (!tracer.enabled()) return;
        EvalTotals t;
        fill(t);
        obs::TraceEvent ev{"run_end"};
        ev.add("engine", engine)
            .add("distinct_evals", t.distinct_evals)
            .add("total_calls", t.total_eval_calls)
            .add("inflight_waits", memo_.inflight_waits());
        engine_fields(ev);
        ev.add("eval_seconds", obs::FieldValue{t.eval_seconds})
            .add("attempts", std::size_t{t.fault.attempts})
            .add("retries", std::size_t{t.fault.retries})
            .add("eval_failures", std::size_t{t.fault.failures})
            .add("eval_timeouts", std::size_t{t.fault.timeouts})
            .add("quarantined", std::size_t{t.fault.quarantined})
            .add("penalties", std::size_t{t.fault.penalties});
        if (store_ != nullptr)
            ev.add("store_hits", t.store_hits).add("store_misses", t.store_misses);
        tracer.emit(std::move(ev));
    }

    // Write the totals into an EvalTotals, RunResult or MultiObjectiveResult.
    template <typename Result>
    void fill(Result& r) const
    {
        r.distinct_evals = memo_.distinct_evaluations();
        r.total_eval_calls = memo_.total_calls();
        r.eval_seconds = batch_.eval_seconds();
        r.eval_workers = batch_.workers();
        r.fault = guard_.counters();
        r.store_hits = store_hits_.load(std::memory_order_relaxed);
        r.store_misses = store_misses_.load(std::memory_order_relaxed);
    }

private:
    template <typename Config>
    static Value penalty_of(const Config& config)
    {
        if constexpr (requires { config.fault_penalty; })
            return config.fault_penalty;
        else
            return Value{};
    }

    // Store record -> value.  A record that does not fit (wrong arity,
    // missing value) decodes to nullopt and reads as a miss.
    std::optional<Value> decode(StoredResult& r) const
    {
        if constexpr (std::is_same_v<Value, Evaluation>) {
            return stored_to_evaluation(r);
        }
        else {
            // An engaged empty Value is a stored infeasible design.
            if (!r.feasible && r.values.empty()) return std::optional<Value>{std::in_place};
            if (r.feasible && r.values.size() == arity_)
                return std::optional<Value>{std::in_place, std::move(r.values)};
            return std::nullopt;
        }
    }

    static StoredResult encode(const Value& v)
    {
        if constexpr (std::is_same_v<Value, Evaluation>) {
            return stored_from_evaluation(v);
        }
        else {
            StoredResult r;
            r.feasible = v.has_value();
            if (v) r.values = *v;
            return r;
        }
    }

    // The store tier: called by the memo on every miss.
    Value tier(const Genome& g)
    {
        if (store_ != nullptr) {
            if (std::optional<StoredResult> cached = store_->lookup(store_ns_, g)) {
                if (std::optional<Value> v = decode(*cached)) {
                    store_hits_.fetch_add(1, std::memory_order_relaxed);
                    return std::move(*v);
                }
            }
        }
        EvalOutcome outcome;
        Value v = guard_.evaluate(g, &outcome);
        if (store_ != nullptr) {
            store_misses_.fetch_add(1, std::memory_order_relaxed);
            if (!outcome.penalized) store_->insert(store_ns_, g, encode(v));
        }
        return v;
    }

    FaultTolerantEvaluator<Value> guard_;
    EvalStore* store_;
    std::uint64_t store_ns_;
    std::size_t arity_;
    std::atomic<std::size_t> store_hits_{0};
    std::atomic<std::size_t> store_misses_{0};
    BasicCachingEvaluator<Value> memo_;
    BatchEvaluator batch_;
    std::optional<std::size_t> resumed_at_;
};

}  // namespace nautilus
