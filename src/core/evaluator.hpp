#pragma once
// Design-point evaluation with distinct-evaluation accounting.
//
// In the paper, the cost of a design-space query is the number of *distinct*
// design points that must be synthesized/simulated; when the GA revisits a
// previously synthesized configuration the result is free (section 4.2,
// Fig. 4 caption).  CachingEvaluator implements exactly this accounting: it
// memoizes results by genome and charges only cache misses.
//
// The evaluator is thread-safe with in-flight deduplication: concurrent
// requests for the same unevaluated genome produce exactly one call to the
// underlying evaluation function and exactly one charged distinct
// evaluation; the losers block until the winner publishes the result.  This
// is the contract the BatchEvaluator thread pool relies on to keep parallel
// runs' distinct_evaluations() identical to serial runs (DESIGN.md,
// "Evaluation pipeline").

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/fitness.hpp"
#include "core/genome.hpp"
#include "core/genome_table.hpp"

namespace nautilus {

// Raw evaluation of a design point; typically runs the virtual synthesis
// model or looks up an offline dataset.  Must be deterministic per genome.
using EvalFn = std::function<Evaluation(const Genome&)>;

// Memoizing, thread-safe evaluator over an arbitrary result type.  The
// single-objective engines use CachingEvaluator (= Evaluation results); the
// NSGA-II engine instantiates it with optional objective vectors.
template <typename Value>
class BasicCachingEvaluator {
public:
    using Fn = std::function<Value(const Genome&)>;

    explicit BasicCachingEvaluator(Fn fn) : fn_(std::move(fn))
    {
        if (!fn_)
            throw std::invalid_argument("CachingEvaluator: null evaluation function");
    }

    BasicCachingEvaluator(const BasicCachingEvaluator&) = delete;
    BasicCachingEvaluator& operator=(const BasicCachingEvaluator&) = delete;

    // Returns the memoized evaluation, computing (and charging) on miss.
    // Safe to call from several threads; a genome in flight on another
    // thread is awaited, not recomputed.  If `charged` is non-null it
    // reports whether *this* call performed the underlying evaluation.
    Value evaluate(const Genome& genome, bool* charged = nullptr)
    {
        if (charged) *charged = false;
        std::unique_lock lock{mutex_};
        ++calls_;
        // One probe: find_or_insert either appends an in-flight row for
        // this thread or finds the existing one.  Row indices are stable,
        // so the probe is not repeated after a wait.
        const auto [row, inserted] = table_.find_or_insert(genome.genes());
        if (inserted) {
            slots_.emplace_back();
        }
        else {
            bool counted_wait = false;
            for (;;) {
                Slot& slot = slots_[row];
                if (slot.state == State::published) return *slot.value;
                if (slot.state == State::abandoned) break;  // reclaim: this thread computes
                // In flight on another thread.  Wait; if that thread's
                // evaluation throws, the row is abandoned and exactly one
                // waiter reclaims it.
                if (!counted_wait) {
                    ++inflight_waits_;
                    counted_wait = true;
                }
                ready_.wait(lock);
            }
            slots_[row].state = State::in_flight;
        }
        ++distinct_;
        if (charged) *charged = true;
        lock.unlock();
        Value result;
        try {
            result = fn_(genome);
        }
        catch (...) {
            lock.lock();
            slots_[row].state = State::abandoned;
            --distinct_;
            if (charged) *charged = false;
            ready_.notify_all();
            throw;
        }
        lock.lock();
        // Publish by row index: other threads' inserts may have moved the
        // slot vector, never renumbered the row.
        Slot& slot = slots_[row];
        slot.value = result;
        slot.state = State::published;
        ready_.notify_all();
        return result;
    }

    // Number of cache misses == synthesis jobs the paper counts.
    std::size_t distinct_evaluations() const
    {
        std::lock_guard lock{mutex_};
        return distinct_;
    }

    // All evaluate() calls including cache hits.
    std::size_t total_calls() const
    {
        std::lock_guard lock{mutex_};
        return calls_;
    }

    // Calls that blocked on an in-flight evaluation of the same genome on
    // another thread (each call counted once, however often it re-waits).
    std::size_t inflight_waits() const
    {
        std::lock_guard lock{mutex_};
        return inflight_waits_;
    }

    // Forget everything (fresh query on the same IP).  Must not race with
    // in-flight evaluate() calls.
    void clear()
    {
        std::lock_guard lock{mutex_};
        table_.clear();
        slots_.clear();
        distinct_ = 0;
        calls_ = 0;
        inflight_waits_ = 0;
    }

    // Checkpointable view of the cache: published entries plus the
    // accounting counters.  Entries are sorted by genome key (genes break a
    // key tie) so snapshots serialize identically whatever the insertion
    // order.
    struct Snapshot {
        std::vector<std::pair<Genome, Value>> entries;
        std::size_t distinct = 0;
        std::size_t calls = 0;
    };

    // Must not race with in-flight evaluate() calls (engines snapshot
    // between evaluation waves; in-flight rows would be lost).
    Snapshot snapshot() const
    {
        std::lock_guard lock{mutex_};
        Snapshot snap;
        snap.entries.reserve(table_.size());
        for (std::size_t r = 0; r < table_.size(); ++r) {
            if (slots_[r].state != State::published) continue;
            const std::span<const std::uint32_t> genes = table_.row(r);
            snap.entries.emplace_back(Genome{{genes.begin(), genes.end()}}, *slots_[r].value);
        }
        std::sort(snap.entries.begin(), snap.entries.end(), [](const auto& a, const auto& b) {
            const std::uint64_t ka = a.first.key();
            const std::uint64_t kb = b.first.key();
            return ka != kb ? ka < kb : a.first.genes() < b.first.genes();
        });
        snap.distinct = distinct_;
        snap.calls = calls_;
        return snap;
    }

    // Replace the cache with a checkpointed snapshot.  The restored distinct
    // and call counters make a resumed run's accounting bit-for-bit equal to
    // an uninterrupted one.  Must not race with evaluate().
    void restore(const Snapshot& snap)
    {
        std::lock_guard lock{mutex_};
        table_.clear();
        slots_.clear();
        table_.reserve(snap.entries.size());
        slots_.reserve(snap.entries.size());
        for (const auto& [genome, value] : snap.entries) {
            const auto [row, inserted] = table_.find_or_insert(genome.genes());
            if (inserted) slots_.emplace_back();
            slots_[row].value = value;
            slots_[row].state = State::published;
        }
        distinct_ = snap.distinct;
        calls_ = snap.calls;
        inflight_waits_ = 0;
    }

private:
    // A row's life: in_flight when claimed, published once its owner
    // returns, abandoned when its owner threw (the next caller reclaims it
    // as a fresh miss).
    enum class State : std::uint8_t { in_flight, published, abandoned };

    struct Slot {
        std::optional<Value> value;
        State state = State::in_flight;
    };

    Fn fn_;
    mutable std::mutex mutex_;
    std::condition_variable ready_;
    GenomeTable table_;        // genome -> row
    std::vector<Slot> slots_;  // by row
    std::size_t distinct_ = 0;
    std::size_t calls_ = 0;
    std::size_t inflight_waits_ = 0;
};

using CachingEvaluator = BasicCachingEvaluator<Evaluation>;

}  // namespace nautilus
