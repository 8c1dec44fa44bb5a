// trace_diff: compare two JSONL traces of the same workload and gate on
// regressions.  Built for CI: run the same seeded search before and after a
// change, diff the traces, and fail the build when the candidate run drifts
// past the configured thresholds.
//
//   trace_diff BASE.jsonl CAND.jsonl [options]
//
// Two families of checks:
//
//   Deterministic (on by default, zero tolerance): run aggregates -- run
//   count and engines, per-run distinct evaluations, total calls, cache
//   hits, retries, and the final best value.  For identical-seed runs of a
//   deterministic engine these must match bit-for-bit (the repo's
//   determinism contract).  It compares aggregates, not event streams: two
//   runs can agree on all of them and still differ in their births or
//   per-generation statistics, which the golden traces (tests/golden) pin.
//     --allow-best-delta X      tolerate |best_base - best_cand| <= X
//     --allow-count-delta N     tolerate counter deltas up to N
//     --no-counters             skip the deterministic family entirely
//
//   Timing (off by default; wall-clock is machine-dependent so they only
//   gate when explicitly enabled with a nonzero percentage):
//     --max-throughput-drop P   fail when candidate distinct-evals/s is more
//                               than P percent below the baseline
//     --max-phase-slowdown P    fail when any span phase (ga.run, ga.breed,
//                               ...) is more than P percent slower, for
//                               phases taking >= 10 ms in the baseline
//
//   Store check (off by default): treat the candidate as a warm re-run of
//   the baseline against a persistent evaluation store.  In addition to the
//   deterministic gates (which prove the warm run reproduced the cold run's
//   results bit-for-bit), require that the store actually absorbed the work:
//     --store-check             fail unless the candidate served at least
//                               --min-store-hit-rate percent of its
//                               evaluations from the store (default 99)
//     --min-store-hit-rate P    override the hit-rate floor
//
// Both traces are read into an obs::RunTraceModel.  A trace with an
// unparseable line or a structural error (an event outside any run, a run
// that never ends, a broken birth sequence) could hide exactly the event a
// gate needs, so it fails the diff instead of being compared partially.
//
// Exit status: 0 all gates pass, 1 gate failure or an unreadable, empty,
// corrupt or structurally broken trace, 2 bad usage.

#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace_model.hpp"
#include "obs/trace_reader.hpp"

#include "flags.hpp"

using nautilus::obs::RunTrace;
using nautilus::obs::RunTraceModel;

namespace {

// Distinct (fresh) evaluations charged in the trace, and the evaluation
// wall-clock they took.
struct Throughput {
    std::uint64_t distinct = 0;
    double seconds = 0.0;

    explicit Throughput(const RunTraceModel& model)
    {
        for (const RunTrace& run : model.runs) {
            distinct += run.distinct_in_trace();
            seconds += run.wave_seconds;
        }
    }
    double per_second() const
    {
        return seconds > 0.0 ? static_cast<double>(distinct) / seconds : 0.0;
    }
};

std::optional<RunTraceModel> load(const std::string& path)
{
    nautilus::obs::TraceReader reader{path};
    if (!reader.is_open()) {
        std::fprintf(stderr, "trace_diff: cannot read %s\n", path.c_str());
        return std::nullopt;
    }
    RunTraceModel model = RunTraceModel::read(reader);
    if (model.unparseable > 0) {
        std::fprintf(stderr, "trace_diff: %s has %zu unparseable line(s)\n", path.c_str(),
                     model.unparseable);
        return std::nullopt;
    }
    if (!model.errors.empty()) {
        for (const nautilus::obs::TraceError& e : model.errors)
            std::fprintf(stderr, "%s\n", e.text.c_str());
        std::fprintf(stderr, "trace_diff: %s has %zu structural error(s)\n", path.c_str(),
                     model.errors.size());
        return std::nullopt;
    }
    if (model.events == 0) {
        std::fprintf(stderr, "trace_diff: %s holds no events\n", path.c_str());
        return std::nullopt;
    }
    return model;
}

const char* usage_text()
{
    return "usage: %s BASE.jsonl CAND.jsonl [--allow-best-delta X]\n"
           "          [--allow-count-delta N] [--no-counters]\n"
           "          [--max-throughput-drop PCT] [--max-phase-slowdown PCT]\n"
           "          [--store-check] [--min-store-hit-rate PCT]\n";
}

[[noreturn]] void usage(const char* argv0)
{
    std::fprintf(stderr, usage_text(), argv0);
    std::exit(2);
}

[[noreturn]] void help(const char* argv0)
{
    std::printf(usage_text(), argv0);
    std::exit(0);
}

}  // namespace

int main(int argc, char** argv)
{
    std::vector<std::string> paths;
    double allow_best_delta = 0.0;
    std::uint64_t allow_count_delta = 0;
    bool counters = true;
    double max_throughput_drop = 0.0;  // percent; 0 = timing gate disabled
    double max_phase_slowdown = 0.0;   // percent; 0 = timing gate disabled
    bool store_check = false;
    double min_store_hit_rate = 99.0;  // percent, only gates with --store-check
    const nautilus::tools::FlagParser flags{argv[0], usage, "trace_diff: "};
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto need_value = [&]() -> const char* {
            if (i + 1 >= argc) usage(argv[0]);
            return argv[++i];
        };
        auto number = [&] { return flags.number(arg, need_value()); };
        if (arg == "--allow-best-delta") allow_best_delta = number();
        else if (arg == "--allow-count-delta") allow_count_delta = flags.u64(arg, need_value());
        else if (arg == "--no-counters") counters = false;
        else if (arg == "--max-throughput-drop") max_throughput_drop = number();
        else if (arg == "--max-phase-slowdown") max_phase_slowdown = number();
        else if (arg == "--store-check") store_check = true;
        else if (arg == "--min-store-hit-rate") min_store_hit_rate = number();
        else if (arg == "--help" || arg == "-h") help(argv[0]);
        else if (arg[0] == '-') {
            std::fprintf(stderr, "trace_diff: unknown option '%s'\n", arg.c_str());
            usage(argv[0]);
        }
        else paths.push_back(arg);
    }
    if (paths.size() != 2) usage(argv[0]);

    const std::optional<RunTraceModel> base = load(paths[0]);
    const std::optional<RunTraceModel> cand = load(paths[1]);
    if (!base || !cand) return 1;
    const Throughput base_tp{*base};
    const Throughput cand_tp{*cand};

    std::size_t failures = 0;
    const auto fail = [&](const char* fmt, auto... args) {
        ++failures;
        std::fprintf(stderr, "trace_diff: FAIL: ");
        std::fprintf(stderr, fmt, args...);
        std::fprintf(stderr, "\n");
    };
    const auto check_count = [&](const char* what, std::size_t run,
                                 std::uint64_t b, std::uint64_t c) {
        const std::uint64_t delta = b > c ? b - c : c - b;
        if (delta > allow_count_delta)
            fail("run %zu %s: base %llu, candidate %llu", run, what,
                 static_cast<unsigned long long>(b),
                 static_cast<unsigned long long>(c));
    };

    std::printf("trace_diff: %s (base) vs %s (candidate)\n", paths[0].c_str(),
                paths[1].c_str());
    std::printf("  %-26s %14s %14s\n", "", "base", "candidate");
    std::printf("  %-26s %14zu %14zu\n", "events", base->events, cand->events);
    std::printf("  %-26s %14zu %14zu\n", "runs", base->runs.size(),
                cand->runs.size());
    std::printf("  %-26s %14llu %14llu\n", "distinct evals",
                static_cast<unsigned long long>(base_tp.distinct),
                static_cast<unsigned long long>(cand_tp.distinct));
    std::printf("  %-26s %14.4f %14.4f\n", "eval seconds", base_tp.seconds, cand_tp.seconds);
    std::printf("  %-26s %14.1f %14.1f\n", "evals/s", base_tp.per_second(),
                cand_tp.per_second());

    if (counters) {
        if (base->runs.size() != cand->runs.size())
            fail("run count: base %zu, candidate %zu", base->runs.size(),
                 cand->runs.size());
        const std::size_t n = std::min(base->runs.size(), cand->runs.size());
        for (std::size_t i = 0; i < n; ++i) {
            const RunTrace& b = base->runs[i];
            const RunTrace& c = cand->runs[i];
            if (b.engine != c.engine)
                fail("run %zu engine: base '%s', candidate '%s'", i, b.engine.c_str(),
                     c.engine.c_str());
            check_count("distinct evals", i, b.distinct_in_trace(), c.distinct_in_trace());
            check_count("total calls", i, b.total_calls.value_or(0), c.total_calls.value_or(0));
            check_count("cache hits", i, b.hits, c.hits);
            check_count("retries", i, b.retries.value_or(0), c.retries.value_or(0));
            if (b.best.has_value() != c.best.has_value())
                fail("run %zu feasibility: base %s, candidate %s", i,
                     b.best ? "feasible" : "infeasible",
                     c.best ? "feasible" : "infeasible");
            else if (b.best && std::abs(*b.best - *c.best) > allow_best_delta)
                fail("run %zu best: base %.6f, candidate %.6f (delta %.6g > %.6g)", i,
                     *b.best, *c.best, std::abs(*b.best - *c.best), allow_best_delta);
        }
    }

    if (max_throughput_drop > 0.0 && base_tp.per_second() > 0.0) {
        const double floor = base_tp.per_second() * (1.0 - max_throughput_drop / 100.0);
        if (cand_tp.per_second() < floor)
            fail("throughput: candidate %.1f evals/s < %.1f (base %.1f - %.1f%%)",
                 cand_tp.per_second(), floor, base_tp.per_second(), max_throughput_drop);
    }
    if (max_phase_slowdown > 0.0) {
        for (const auto& [name, b_span] : base->spans) {
            const double b_seconds = b_span.seconds;
            if (b_seconds < 0.010) continue;  // below timing noise
            const auto it = cand->spans.find(name);
            if (it == cand->spans.end()) continue;
            const double cap = b_seconds * (1.0 + max_phase_slowdown / 100.0);
            if (it->second.seconds > cap)
                fail("phase %s: candidate %.4f s > %.4f s (base %.4f s + %.1f%%)",
                     name.c_str(), it->second.seconds, cap, b_seconds, max_phase_slowdown);
        }
    }

    if (store_check) {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        for (const RunTrace& r : cand->runs) {
            hits += r.store_hits;
            misses += r.store_misses;
        }
        const std::uint64_t total = hits + misses;
        const double rate =
            total > 0 ? 100.0 * static_cast<double>(hits) / static_cast<double>(total) : 0.0;
        std::printf("  store-check: candidate served %llu/%llu evals from the store"
                    " (%.1f%% hit rate, floor %.1f%%)\n",
                    static_cast<unsigned long long>(hits),
                    static_cast<unsigned long long>(total), rate, min_store_hit_rate);
        if (total == 0)
            fail("%s", "store-check: candidate trace records no store activity"
                       " (was it run with --store?)");
        else if (rate < min_store_hit_rate)
            fail("store-check: hit rate %.1f%% < %.1f%% (%llu/%llu evals hit the store)",
                 rate, min_store_hit_rate, static_cast<unsigned long long>(hits),
                 static_cast<unsigned long long>(total));
    }

    if (failures > 0) {
        std::fprintf(stderr, "trace_diff: %zu gate failure(s)\n", failures);
        return 1;
    }
    std::printf("trace_diff: OK (all gates passed)\n");
    return 0;
}
