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
// The pipeline owns the evaluation state a checkpoint holds
// (snapshot/restore) and the end-of-run totals; RunScope (core/run_scope.hpp)
// turns them into run_start and run_end.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>

#include "core/batch_evaluator.hpp"
#include "core/engine_base.hpp"
#include "core/eval_store.hpp"
#include "core/evaluator.hpp"
#include "core/fault.hpp"
#include "core/fitness.hpp"

namespace nautilus {

// `Value` is Evaluation for the scalar engines and
// std::optional<std::vector<double>> (one value per objective, nullopt =
// infeasible) for NSGA-II.
template <typename Value>
class EvalPipeline {
public:
    using Fn = std::function<Value(const Genome&)>;

    // `config` supplies fault, obs, eval_workers, store and store_namespace.
    // `penalty` answers a quarantined design (fault_penalty for the scalar
    // engines, nullopt for NSGA-II).  `arity` is the value count a stored
    // feasible record must carry.
    EvalPipeline(Fn fn, const RunConfig& config, Value penalty = Value{},
                 std::size_t arity = 1)
        : guard_{std::move(fn), config.fault, std::move(penalty)},
          store_{config.store.get()},
          store_ns_{config.store_namespace},
          arity_{arity},
          memo_{[this](const Genome& g) { return tier(g); }},
          batch_{config.eval_workers}
    {
        guard_.set_instrumentation(config.obs);
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
    std::size_t calls() const { return memo_.total_calls(); }
    std::size_t inflight_waits() const { return memo_.inflight_waits(); }

    // Called after each wave with its fresh genomes and wall-clock (the
    // GA's eval_observer).
    void set_observer(BatchObserver observer) { batch_.set_observer(std::move(observer)); }

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

    // Inverse of snapshot().  Before the first wave only.
    template <typename Checkpoint>
    void restore(const Checkpoint& cp)
    {
        typename BasicCachingEvaluator<Value>::Snapshot snap;
        snap.entries = cp.cache;
        snap.distinct = cp.distinct;
        snap.calls = cp.calls;
        memo_.restore(snap);
        guard_.restore(cp.quarantine, cp.fault);
    }

    // Write the totals into an EvalTotals (or a result derived from it).
    void fill(EvalTotals& r) const
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
};

}  // namespace nautilus
