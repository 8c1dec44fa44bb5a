// GenomeTable (core/genome_table.hpp) and the memo built on it: rows are
// dense and stable across growth, lookups are exact, and the memo keeps its
// in-flight dedup, owner-throw handoff and snapshot format.

#include "core/genome_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/batch_evaluator.hpp"
#include "core/evaluator.hpp"
#include "core/genome.hpp"
#include "core/rng.hpp"

namespace nautilus {
namespace {

std::vector<std::uint32_t> row_of(std::uint32_t a, std::uint32_t b, std::uint32_t c)
{
    return {a, b, c};
}

TEST(GenomeTable, InsertThenFind)
{
    GenomeTable table;
    EXPECT_TRUE(table.empty());
    EXPECT_EQ(table.find(row_of(1, 2, 3)), GenomeTable::npos);

    const auto [r0, new0] = table.find_or_insert(row_of(1, 2, 3));
    const auto [r1, new1] = table.find_or_insert(row_of(3, 2, 1));
    const auto [again, new_again] = table.find_or_insert(row_of(1, 2, 3));
    EXPECT_TRUE(new0);
    EXPECT_TRUE(new1);
    EXPECT_FALSE(new_again);
    EXPECT_EQ(r0, 0u);
    EXPECT_EQ(r1, 1u);
    EXPECT_EQ(again, r0);
    EXPECT_EQ(table.size(), 2u);
    EXPECT_EQ(table.width(), 3u);
    EXPECT_EQ(table.find(row_of(3, 2, 1)), r1);
    EXPECT_EQ(table.find(row_of(2, 2, 2)), GenomeTable::npos);
    const auto stored = table.row(r1);
    EXPECT_EQ(std::vector<std::uint32_t>(stored.begin(), stored.end()), row_of(3, 2, 1));
}

TEST(GenomeTable, WidthIsFixedByTheFirstInsert)
{
    GenomeTable table;
    table.find_or_insert(row_of(0, 0, 0));
    const std::vector<std::uint32_t> shorter{0, 0};
    EXPECT_EQ(table.find(shorter), GenomeTable::npos);
    EXPECT_THROW(table.find_or_insert(shorter), std::invalid_argument);

    table.clear();  // forgets the width too
    EXPECT_TRUE(table.find_or_insert(shorter).second);
    EXPECT_EQ(table.width(), 2u);

    table.reset(0);  // zero-width rows: the empty genome is one row
    EXPECT_TRUE(table.find_or_insert({}).second);
    EXPECT_FALSE(table.find_or_insert({}).second);
    EXPECT_EQ(table.find({}), 0u);
}

TEST(GenomeTable, RowsStayStableThroughGrowth)
{
    // Every point of a 20 x 20 x 20 grid, inserted in a seeded order: the
    // table grows many times, and each row keeps its index and genes.
    std::vector<std::vector<std::uint32_t>> points;
    for (std::uint32_t a = 0; a < 20; ++a)
        for (std::uint32_t b = 0; b < 20; ++b)
            for (std::uint32_t c = 0; c < 20; ++c) points.push_back(row_of(a, b, c));
    Rng rng{0x7ab1e};
    rng.shuffle(points);

    GenomeTable table;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto [row, inserted] = table.find_or_insert(points[i]);
        ASSERT_TRUE(inserted);
        ASSERT_EQ(row, i);
    }
    EXPECT_EQ(table.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(table.find(points[i]), i);
        const auto stored = table.row(i);
        EXPECT_TRUE(std::equal(stored.begin(), stored.end(), points[i].begin()));
        EXPECT_FALSE(table.find_or_insert(points[i]).second);
    }
    EXPECT_EQ(table.find(row_of(20, 0, 0)), GenomeTable::npos);
}

TEST(GenomeTable, ReserveAndClearKeepLookupsExact)
{
    GenomeTable table;
    table.reset(3);
    table.reserve(1000);
    for (std::uint32_t i = 0; i < 1000; ++i) table.find_or_insert(row_of(i, i * 7, 1));
    EXPECT_EQ(table.size(), 1000u);
    table.clear();
    EXPECT_TRUE(table.empty());
    EXPECT_EQ(table.find(row_of(5, 35, 1)), GenomeTable::npos);
    EXPECT_EQ(table.find_or_insert(row_of(5, 35, 1)).first, 0u);
}

TEST(GenomeTable, HashIsDeterministicAndOrderSensitive)
{
    EXPECT_EQ(GenomeTable::hash(row_of(1, 2, 3)), GenomeTable::hash(row_of(1, 2, 3)));
    EXPECT_NE(GenomeTable::hash(row_of(1, 2, 3)), GenomeTable::hash(row_of(3, 2, 1)));
}

// ---- The memo on the flat table --------------------------------------------
// Named *Concurren* so the ThreadSanitizer filter runs them.

ParameterSpace three_param_space()
{
    ParameterSpace space;
    space.add("a", ParamDomain::int_range(0, 5));
    space.add("b", ParamDomain::int_range(0, 6));
    space.add("c", ParamDomain::int_range(0, 3));
    return space;
}

Evaluation seeded_value(const Genome& g)
{
    const double v = g.gene(0) * 1.5 - g.gene(1) * 0.25 + g.gene(2) * 3.0;
    return Evaluation{g.gene(2) != 3, v};
}

// FNV-1a over 64-bit words, byte by byte in little-endian order.
std::uint64_t fnv(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) h = (h ^ ((v >> (8 * i)) & 0xffu)) * 0x100000001b3ull;
    return h;
}

std::uint64_t snapshot_digest(const CachingEvaluator::Snapshot& snap)
{
    std::uint64_t h = fnv(0xcbf29ce484222325ull, snap.entries.size());
    for (const auto& [genome, eval] : snap.entries) {
        for (const std::uint32_t gene : genome.genes()) h = fnv(h, gene);
        h = fnv(h, eval.feasible ? 1 : 0);
        h = fnv(h, std::bit_cast<std::uint64_t>(eval.value));
    }
    h = fnv(h, snap.distinct);
    return fnv(h, snap.calls);
}

// The digest of the snapshot the node-based memo took of this seeded run;
// the snapshot format, its key order and the counters are unchanged.
constexpr std::uint64_t k_seeded_snapshot_digest = 0x3aeb9c042a4c4248ull;

TEST(GenomeTableMemoConcurrency, SnapshotMatchesTheNodeBasedMemoAtAnyWorkerCount)
{
    const ParameterSpace space = three_param_space();
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        CachingEvaluator memo{seeded_value};
        BatchEvaluator batch{workers};
        Rng rng{0x5eed};
        std::vector<Genome> wave(12);
        std::vector<Evaluation> out(12);
        for (int w = 0; w < 20; ++w) {
            for (Genome& g : wave) g = Genome::random(space, rng);
            batch.evaluate(memo, std::span<const Genome>{wave}, std::span<Evaluation>{out});
        }
        const CachingEvaluator::Snapshot snap = memo.snapshot();
        EXPECT_EQ(snap.distinct, 125u) << workers << " workers";
        EXPECT_EQ(snap.calls, 240u) << workers << " workers";
        EXPECT_EQ(snapshot_digest(snap), k_seeded_snapshot_digest) << workers << " workers";

        // restore() brings back the entries and the counters exactly: a
        // snapshot of the restored memo is the same snapshot, and a hit on
        // it charges nothing.
        CachingEvaluator restored{[](const Genome&) -> Evaluation {
            throw std::logic_error("a restored entry was recomputed");
        }};
        restored.restore(snap);
        EXPECT_EQ(restored.distinct_evaluations(), snap.distinct);
        EXPECT_EQ(restored.total_calls(), snap.calls);
        EXPECT_EQ(restored.inflight_waits(), 0u);
        EXPECT_EQ(snapshot_digest(restored.snapshot()), k_seeded_snapshot_digest);
        for (const auto& [genome, eval] : snap.entries) {
            bool charged = true;
            const Evaluation hit = restored.evaluate(genome, &charged);
            EXPECT_EQ(hit.feasible, eval.feasible);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(hit.value),
                      std::bit_cast<std::uint64_t>(eval.value));
            EXPECT_FALSE(charged);
        }
        EXPECT_EQ(restored.distinct_evaluations(), snap.distinct);
        EXPECT_EQ(restored.total_calls(), snap.calls + snap.entries.size());
    }
}

TEST(GenomeTableMemoConcurrency, WaitersOnAnInFlightRowShareOneEvaluation)
{
    constexpr int k_waiters = 5;
    std::atomic<int> calls{0};
    CachingEvaluator* memo = nullptr;
    CachingEvaluator ev{[&](const Genome& g) {
        ++calls;
        // Hold the row in flight until every waiter has blocked on it.
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (memo->inflight_waits() < static_cast<std::size_t>(k_waiters) &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return Evaluation{true, static_cast<double>(g.gene(0))};
    }};
    memo = &ev;

    const Genome hot{{3, 1, 2}};
    std::vector<std::thread> threads;
    std::vector<Evaluation> results(k_waiters + 1);
    threads.emplace_back([&] { results[0] = ev.evaluate(hot); });
    while (calls.load() == 0) std::this_thread::yield();
    for (int t = 1; t <= k_waiters; ++t)
        threads.emplace_back([&, t] { results[t] = ev.evaluate(hot); });
    for (auto& t : threads) t.join();

    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(ev.distinct_evaluations(), 1u);
    EXPECT_EQ(ev.inflight_waits(), static_cast<std::size_t>(k_waiters));
    for (const Evaluation& r : results) EXPECT_DOUBLE_EQ(r.value, 3.0);
}

TEST(GenomeTableMemoConcurrency, AbandonedRowIsReclaimedOnceWhileTheTableGrows)
{
    constexpr int k_waiters = 4;
    std::atomic<int> hot_calls{0};
    std::atomic<bool> owner_entered{false};
    CachingEvaluator* memo = nullptr;
    const Genome hot{{1, 1, 1}};
    CachingEvaluator ev{[&](const Genome& g) -> Evaluation {
        if (g != hot) return seeded_value(g);
        if (++hot_calls == 1) {
            owner_entered = true;
            const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while (memo->inflight_waits() < static_cast<std::size_t>(k_waiters) &&
                   std::chrono::steady_clock::now() < deadline)
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            throw std::runtime_error("owner failed");
        }
        return Evaluation{true, 42.0};
    }};
    memo = &ev;

    bool owner_threw = false;
    std::thread owner{[&] {
        try {
            ev.evaluate(hot);
        }
        catch (const std::runtime_error&) {
            owner_threw = true;
        }
    }};
    while (!owner_entered) std::this_thread::yield();

    std::vector<std::thread> threads;
    std::vector<Evaluation> results(k_waiters);
    std::vector<char> charged(k_waiters, 0);
    for (int t = 0; t < k_waiters; ++t)
        threads.emplace_back([&, t] {
            bool c = false;
            results[t] = ev.evaluate(hot, &c);
            charged[t] = c ? 1 : 0;
        });
    // A filler thread inserts enough rows to grow the table several times
    // while the hot row is in flight and then abandoned.
    const ParameterSpace space = three_param_space();
    std::thread filler{[&] {
        for (std::size_t rank = 0; rank < 168; ++rank) {
            const Genome g = Genome::from_rank(space, rank);
            if (g != hot) ev.evaluate(g);
        }
    }};
    owner.join();
    filler.join();
    for (auto& t : threads) t.join();

    EXPECT_TRUE(owner_threw);
    EXPECT_EQ(hot_calls.load(), 2);  // the failed owner and exactly one reclaim
    EXPECT_EQ(std::count(charged.begin(), charged.end(), 1), 1);
    EXPECT_EQ(ev.distinct_evaluations(), 168u);
    for (const Evaluation& r : results) EXPECT_DOUBLE_EQ(r.value, 42.0);
    // The reclaimed row is published like any other.
    bool c = true;
    EXPECT_DOUBLE_EQ(ev.evaluate(hot, &c).value, 42.0);
    EXPECT_FALSE(c);
}

}  // namespace
}  // namespace nautilus
