// trace_inspect: summarize and validate JSONL traces written by
// `nautilus_cli --trace PATH` (or any obs::JsonlFileSink).
//
//   trace_inspect run.jsonl            human-readable summary
//   trace_inspect run.jsonl --check    validation mode: every line must parse
//                                      and per-run evaluation accounting must
//                                      be self-consistent; exits nonzero on
//                                      any failure
//   trace_inspect run.jsonl --chrome OUT.json
//                                      additionally convert the trace to the
//                                      Chrome trace-event JSON array format;
//                                      load OUT.json at https://ui.perfetto.dev
//
// Unknown flags are rejected with a usage message and a nonzero exit, so CI
// scripts fail fast on typos instead of treating a flag as the trace path.
//
// The summary reports event counts by type, aggregate span timings, a
// per-run table (engine, waves, distinct vs. total evaluations, cache hit
// rate, wall-clock) and the hint-guided mutation draw distribution.  Counts
// are per birth in either trace format: a v2 `births` record counts as one
// `birth` event per birth it carries.
//
// The trace is read into one obs::RunTraceModel (obs/trace_model.hpp),
// which also holds the invariants --check enforces: structural errors (an
// event outside any run, a run that never ends, a broken birth sequence)
// and RunTraceModel::check()'s accounting violations -- evaluation and
// guard accounting (DESIGN.md section 8), lineage conservation (section 11)
// and job_summary reconciliation (section 13).  Structural errors are
// always listed on stderr; without --check they do not change the exit
// code, so a killed run's trace still summarizes, marked [unterminated].

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/trace_model.hpp"
#include "obs/trace_reader.hpp"

using nautilus::obs::RunTrace;
using nautilus::obs::TraceEvent;

namespace {

const char* usage_text()
{
    return "usage: %s TRACE.jsonl [--check] [--chrome OUT.json]\n";
}

[[noreturn]] void usage(const char* argv0)
{
    std::fprintf(stderr, usage_text(), argv0);
    std::exit(2);
}

[[noreturn]] void help(const char* argv0)
{
    std::printf(usage_text(), argv0);
    std::printf("  --check          validate accounting invariants; nonzero exit on any"
                " failure\n"
                "  --chrome OUT     also write Chrome trace-event JSON (ui.perfetto.dev)\n"
                "  -h, --help       show this help\n");
    std::exit(0);
}

void print_summary(const nautilus::obs::RunTraceModel& model)
{
    std::printf("trace: %s (%zu events, %.3f s span)\n", model.path.c_str(),
                model.events + model.unparseable, model.last_t);
    std::printf("events by type:\n");
    for (const auto& [type, n] : model.counts)
        std::printf("  %-14s %8llu\n", type.c_str(), static_cast<unsigned long long>(n));

    if (!model.spans.empty()) {
        std::printf("span timings:\n");
        for (const auto& [name, span] : model.spans)
            std::printf("  %-14s %8llu x %10.4f s total\n", name.c_str(),
                        static_cast<unsigned long long>(span.count), span.seconds);
    }

    if (!model.runs.empty()) {
        std::printf("runs:\n");
        std::printf("  %3s  %-8s %6s %8s %9s %8s %6s %9s %12s\n", "#", "engine", "waves",
                    "items", "distinct", "hits", "hit%", "eval s", "best");
        std::uint64_t total_items = 0;
        std::uint64_t total_fresh = 0;
        for (std::size_t i = 0; i < model.runs.size(); ++i) {
            const RunTrace& run = model.runs[i];
            total_items += run.items;
            total_fresh += run.fresh;
            const double hit_rate =
                run.items > 0
                    ? 100.0 * static_cast<double>(run.hits) / static_cast<double>(run.items)
                    : 0.0;
            std::printf("  %3zu  %-8s %6llu %8llu %9llu %8llu %5.1f%% %9.4f ", i,
                        run.engine.c_str(), static_cast<unsigned long long>(run.waves),
                        static_cast<unsigned long long>(run.items),
                        static_cast<unsigned long long>(run.fresh),
                        static_cast<unsigned long long>(run.hits), hit_rate,
                        run.wave_seconds);
            if (run.best) std::printf("%12.3f", *run.best);
            else std::printf("%12s", "-");
            if (run.resumed) std::printf("  [resumed @%llu]",
                                         static_cast<unsigned long long>(run.distinct_at_start));
            if (run.faults > 0 || run.quarantines > 0)
                std::printf("  [faults %llu, quarantined %llu]",
                            static_cast<unsigned long long>(run.faults),
                            static_cast<unsigned long long>(run.quarantines));
            if (run.checkpoints > 0)
                std::printf("  [checkpoints %llu]",
                            static_cast<unsigned long long>(run.checkpoints));
            if (!run.terminated()) std::printf("  [unterminated]");
            std::printf("\n");
        }
        const double overall_hit =
            total_items > 0 ? 100.0 * static_cast<double>(total_items - total_fresh) /
                                  static_cast<double>(total_items)
                            : 0.0;
        std::printf("  overall: %llu items, %llu distinct, %.1f%% cache hits\n",
                    static_cast<unsigned long long>(total_items),
                    static_cast<unsigned long long>(total_fresh), overall_hit);
    }

    const std::uint64_t draws = model.bias_draws + model.target_draws + model.uniform_draws;
    if (draws > 0) {
        const auto pct = [&](std::uint64_t n) {
            return 100.0 * static_cast<double>(n) / static_cast<double>(draws);
        };
        std::printf("mutation draws: %llu genes (bias %.1f%%, target %.1f%%, uniform "
                    "%.1f%%)\n",
                    static_cast<unsigned long long>(model.genes_mutated),
                    pct(model.bias_draws), pct(model.target_draws), pct(model.uniform_draws));
    }
}

}  // namespace

int main(int argc, char** argv)
{
    std::string path;
    std::string chrome_out;
    bool check = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0) check = true;
        else if (std::strcmp(argv[i], "--chrome") == 0) {
            if (i + 1 >= argc) usage(argv[0]);
            chrome_out = argv[++i];
        }
        else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0)
            help(argv[0]);
        else if (argv[i][0] == '-') {
            std::fprintf(stderr, "trace_inspect: unknown option '%s'\n", argv[i]);
            usage(argv[0]);
        }
        else if (path.empty()) path = argv[i];
        else usage(argv[0]);
    }
    if (path.empty()) usage(argv[0]);

    nautilus::obs::TraceReader reader{path};
    if (!reader.is_open()) {
        std::fprintf(stderr, "trace_inspect: cannot read %s\n", path.c_str());
        return 1;
    }
    std::vector<TraceEvent> chrome_events;  // kept only with --chrome
    const nautilus::obs::RunTraceModel model = nautilus::obs::RunTraceModel::read(
        reader, chrome_out.empty() ? nullptr : &chrome_events);
    for (const nautilus::obs::TraceError& e : model.errors)
        std::fprintf(stderr, "%s\n", e.text.c_str());
    if (model.lines == 0) {
        std::fprintf(stderr, "trace_inspect: %s holds no events\n", path.c_str());
        return 1;
    }

    if (!chrome_out.empty()) {
        std::ofstream out{chrome_out};
        if (!out) {
            std::fprintf(stderr, "trace_inspect: cannot write %s\n", chrome_out.c_str());
            return 1;
        }
        out << nautilus::obs::chrome_trace_json(chrome_events);
        std::printf("chrome trace written to %s (%zu events; open at ui.perfetto.dev)\n",
                    chrome_out.c_str(), chrome_events.size());
    }

    const std::vector<nautilus::obs::TraceViolation> violations = model.check();
    for (const nautilus::obs::TraceViolation& v : violations)
        std::fprintf(stderr, "run %zu (%s): %s\n", v.run, model.runs[v.run].engine.c_str(),
                     v.text.c_str());

    if (check) {
        const std::size_t parse_errors = model.unparseable + model.errors.size();
        if (parse_errors > 0 || !violations.empty()) {
            std::fprintf(stderr,
                         "trace_inspect: FAIL (%zu parse errors, %zu accounting errors)\n",
                         parse_errors, violations.size());
            return 1;
        }
        std::printf("trace_inspect: OK (%zu events, %zu runs, accounting consistent)\n",
                    model.events, model.runs.size());
        return 0;
    }

    print_summary(model);
    if (!violations.empty()) {
        std::fprintf(stderr, "trace_inspect: %zu accounting inconsistencies (see above)\n",
                     violations.size());
        return 1;
    }
    return 0;
}
