#pragma once
// One reading of a JSONL trace (DESIGN.md sections 7, 8, 11 and 13), shared
// by trace_inspect, trace_diff and lineage_report.
//
// A RunTraceModel is built in one pass, either from a TraceReader or by
// feeding it events one at a time.  It aggregates the trace as a whole
// (event counts, span totals, mutation draws) and each run_start..run_end
// window: resume baselines, eval waves, faults, the run_end block, the
// job_summary of a server job, the birth records and per-generation draw
// tallies, and the parsed lineage_summary.
//
// Births come in two layouts (DESIGN.md section 7): trace format v1 writes
// one `birth` event per birth, v2 one columnar `births` record per wave of
// births.  Both decode into the same BirthRecords, and a `births` record
// counts as one `birth` event per birth it carries, so a v1 and a v2 trace
// of the same run read back identically.  One run must use one layout.
//
// Two kinds of problem are kept apart:
//   - structural errors (`errors`), found while reading: an event outside
//     any run, run_end without run_start, a run that never ends, a birth id
//     that breaks the dense sequence or names a parent not older than
//     itself, an unknown birth op or origin code, a `births` record whose
//     columns differ in length or hold a parent that is not an id, and a
//     run that mixes the two layouts.  Every tool refuses a trace that has
//     any (trace_inspect only under --check).
//   - accounting violations, returned by check(): evaluation and guard
//     accounting, job_summary reconciliation and lineage conservation.
//     This is the one place those invariants are implemented.
//
// This header is part of nautilus_obs and must not include core headers.

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/lineage.hpp"
#include "obs/trace.hpp"

namespace nautilus::obs {

class TraceReader;

struct SpanTotals {
    std::uint64_t count = 0;
    double seconds = 0.0;
};

// Offspring and mutation draws announced for one generation: by the GA's
// `breed` events, or by the NSGA-II `generation` event (which sets `born`).
struct GenDraws {
    std::uint64_t children = 0;
    std::uint64_t elites = 0;
    std::uint64_t born = 0;
    std::uint64_t uniform = 0;
    std::uint64_t bias = 0;
    std::uint64_t target = 0;
};

// A server job's closing `job_summary`, attached to the run it follows.
struct JobCounts {
    std::uint64_t distinct_evals = 0;
    std::optional<std::uint64_t> fresh_evals;
    std::optional<std::uint64_t> store_hits;
    std::optional<std::uint64_t> retries;
    std::optional<std::uint64_t> workers;
};

// One run_start..run_end window.  Engines run sequentially, so runs never
// nest: events belong to the most recent run_start.
struct RunTrace {
    std::string engine;
    std::size_t first_line = 0;  // line of the run_start
    // run_start: resume baselines (zero for fresh runs).
    bool resumed = false;
    std::uint64_t workers = 0;
    std::uint64_t distinct_at_start = 0;
    std::uint64_t attempts_at_start = 0;
    std::uint64_t retries_at_start = 0;
    // Event tallies within the window.
    std::uint64_t waves = 0;
    std::uint64_t items = 0;
    std::uint64_t fresh = 0;
    std::uint64_t hits = 0;
    double wave_seconds = 0.0;
    std::uint64_t faults = 0;
    std::uint64_t quarantines = 0;
    std::uint64_t checkpoints = 0;
    // run_end.  A run is terminated once a run_end carrying distinct_evals
    // was read; the other fields stay absent or zero until then.
    std::optional<std::uint64_t> distinct_evals;
    std::optional<std::uint64_t> total_calls;
    std::optional<std::uint64_t> attempts;
    std::optional<std::uint64_t> retries;
    std::uint64_t store_hits = 0;
    std::uint64_t store_misses = 0;
    std::optional<double> best;  // only when the run ended feasible
    std::optional<JobCounts> job;
    // Lineage (DESIGN.md section 11).
    std::vector<BirthRecord> births;                // in trace order
    std::map<std::uint64_t, GenDraws> breeds;       // GA breed events by gen
    std::map<std::uint64_t, GenDraws> generations;  // NSGA-II events by gen
    std::optional<LineageSummary> lineage;

    bool terminated() const { return distinct_evals.has_value(); }
    // Distinct evaluations charged in this trace: run_end distinct_evals
    // minus the checkpointed distinct_at_start of a resumed run.  Zero for
    // an unterminated run, and never wraps below zero.
    std::uint64_t distinct_in_trace() const;
    // True when the birth ids are exactly 0..births.size()-1, so births[id]
    // is the record of `id`.
    bool dense() const;
};

// A structural error; `text` is the full diagnostic, usually
// "PATH:LINE: what".
struct TraceError {
    std::size_t line = 0;
    std::string text;
};

// An accounting violation of run `run`; the printers prefix `text` with the
// run.  `lineage` marks the lineage conservation invariants.
struct TraceViolation {
    std::size_t run = 0;
    bool lineage = false;
    std::string text;
};

class RunTraceModel {
public:
    // `path` names the trace in diagnostics.
    explicit RunTraceModel(std::string path);

    // Reads every remaining event of `reader`, then finish()es.  When
    // `events` is non-null it also receives a copy of each event.
    static RunTraceModel read(TraceReader& reader, std::vector<TraceEvent>* events = nullptr);

    // Feeds one event read from 1-based line `line`.
    void add(const TraceEvent& event, std::size_t line);
    // Reports the runs that never ended; call once after the last add().
    void finish();

    // Every accounting violation, run by run.  Unterminated runs are
    // skipped: they are structural errors already.
    std::vector<TraceViolation> check() const;

    std::string path;
    std::size_t lines = 0;        // non-blank lines, set by read()
    std::size_t unparseable = 0;  // lines the reader rejected, set by read()
    std::size_t events = 0;       // a `births` record counts once per birth
    double last_t = 0.0;
    std::map<std::string, std::uint64_t> counts;  // events by type
    std::map<std::string, SpanTotals> spans;      // by span name
    std::uint64_t genes_mutated = 0;
    std::uint64_t uniform_draws = 0;
    std::uint64_t bias_draws = 0;
    std::uint64_t target_draws = 0;
    std::vector<RunTrace> runs;
    std::vector<TraceError> errors;

private:
    struct Birth;  // one birth as either layout spells it

    void error(std::size_t line, const std::string& what);
    RunTrace* in_run(const TraceEvent& event, std::size_t line);
    bool birth_layout(const TraceEvent& event, std::size_t line);
    void add_births(RunTrace& run, const TraceEvent& event, std::size_t line);
    void add_birth(RunTrace& run, const Birth& birth, std::size_t line);

    std::optional<std::size_t> open_;             // index of the open run
    std::optional<std::size_t> last_closed_;      // latest run with a run_end
    std::optional<std::uint64_t> next_birth_id_;  // in the open run
    std::string birth_type_;  // "birth" or "births" once the open run has one
};

}  // namespace nautilus::obs
