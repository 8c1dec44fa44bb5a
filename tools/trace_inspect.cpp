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
// rate, wall-clock) and the hint-guided mutation draw distribution.
//
// Validation covers the fault-tolerance invariants (DESIGN.md section 8):
// per run, summed wave `fresh` must equal the distinct evaluations charged
// *in this trace* (run_end distinct_evals minus the checkpointed
// distinct_at_start on resumed runs), and every guarded attempt must be
// accounted for: attempts - attempts_at_start == fresh + (retries -
// retries_at_start).
//
// Traces carrying lineage events (DESIGN.md section 11) are additionally
// held to the lineage conservation invariants: birth ids are dense and
// strictly increasing within a run, ancestry is acyclic (parents precede
// children), GA birth counts and per-class origin sums match the breed
// events gene-for-gene, the NSGA-II `born` field matches its generation's
// births, and the lineage_summary totals agree with the events observed.
//
// Server-job traces close with a `job_summary` accounting event (DESIGN.md
// section 13); its eval counters must reconcile exactly with the run's own
// run_end (distinct_evals, store_hits, retries) and its granted worker
// count with the run_start workers field.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"

using nautilus::obs::TraceEvent;

namespace {

struct SpanAgg {
    std::uint64_t count = 0;
    double seconds = 0.0;
};

// Births observed at one generation within a run window.
struct GenBirths {
    std::uint64_t total = 0;  // non-root births (elite + mutation + crossover)
    std::uint64_t elites = 0;
    std::uint64_t uniform = 0;  // per-gene origin class sums
    std::uint64_t bias = 0;
    std::uint64_t target = 0;
};

// One GA breed event (or NSGA-II generation draw block) at one generation.
struct GenBreed {
    std::uint64_t children = 0;
    std::uint64_t elites = 0;
    std::uint64_t uniform = 0;
    std::uint64_t bias = 0;
    std::uint64_t target = 0;
};

// Accounting for one run_start..run_end window.  Waves are attributed to the
// innermost open run; engines run sequentially so runs never nest.
struct RunAgg {
    std::string engine;
    std::size_t first_line = 0;
    std::uint64_t waves = 0;
    std::uint64_t items = 0;
    std::uint64_t fresh = 0;
    std::uint64_t hits = 0;
    std::uint64_t waits = 0;
    double wave_seconds = 0.0;
    // From run_start: resume baselines (zero for fresh runs).
    bool resumed = false;
    std::uint64_t workers = 0;
    std::uint64_t distinct_at_start = 0;
    std::uint64_t attempts_at_start = 0;
    std::uint64_t retries_at_start = 0;
    // Event tallies within the run window.
    std::uint64_t fault_events = 0;
    std::uint64_t quarantine_events = 0;
    std::uint64_t checkpoint_events = 0;
    // From run_end (absent if the trace was truncated mid-run).
    std::optional<std::uint64_t> distinct_evals;
    std::optional<std::uint64_t> total_calls;
    std::optional<std::uint64_t> attempts;
    std::optional<std::uint64_t> retries;
    // Persistent-store accounting (0 when no store was attached).
    std::uint64_t store_hits = 0;
    std::uint64_t store_misses = 0;
    std::optional<std::uint64_t> quarantined;
    std::optional<double> best;
    bool feasible = false;
    // Lineage accounting within the run window (DESIGN.md section 11).
    std::uint64_t births_in_window = 0;
    std::uint64_t roots = 0;
    std::uint64_t elite_births = 0;
    std::uint64_t mutation_births = 0;
    std::uint64_t crossover_births = 0;
    std::optional<std::uint64_t> first_birth_id;
    std::map<std::uint64_t, GenBirths> birth_gens;  // non-root births by gen
    std::map<std::uint64_t, GenBreed> breed_gens;   // GA breed events by gen
    std::map<std::uint64_t, std::uint64_t> born_gens;  // NSGA-II `born` by gen
    std::map<std::uint64_t, GenBreed> draw_gens;    // NSGA-II draws by gen
    // From the lineage_summary event (absent when lineage was off).
    std::optional<std::uint64_t> sum_births;
    std::uint64_t sum_births_at_start = 0;
    std::uint64_t sum_roots = 0;
    std::uint64_t sum_elites = 0;
    std::uint64_t sum_mutation = 0;
    std::uint64_t sum_crossover = 0;
    // From the job_summary event (server jobs only; emitted after run_end,
    // so it attaches to the most recently closed run).
    std::optional<std::uint64_t> job_distinct;
    std::optional<std::uint64_t> job_fresh;
    std::optional<std::uint64_t> job_store_hits;
    std::optional<std::uint64_t> job_retries;
    std::optional<std::uint64_t> job_workers;
};

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

    std::map<std::string, std::uint64_t> counts;
    std::map<std::string, SpanAgg> spans;
    std::vector<TraceEvent> chrome_events;  // kept only with --chrome
    std::vector<RunAgg> runs;
    std::optional<std::size_t> open_run;     // index into runs
    std::optional<std::size_t> last_closed;  // most recent run with a run_end
    std::uint64_t bias_draws = 0;
    std::uint64_t target_draws = 0;
    std::uint64_t uniform_draws = 0;
    std::uint64_t genes_mutated = 0;
    std::size_t parse_errors = 0;  // unparseable lines plus structural errors
    double last_t = 0.0;

    while (reader.next()) {
        const TraceEvent& ev = reader.event();
        const std::size_t lineno = reader.line();
        if (!chrome_out.empty()) chrome_events.push_back(ev);
        ++counts[ev.type];
        last_t = ev.t;

        if (ev.type == "span") {
            SpanAgg& agg = spans[ev.string("name").value_or("?")];
            ++agg.count;
            agg.seconds += ev.number("seconds").value_or(0.0);
        }
        else if (ev.type == "run_start") {
            RunAgg run;
            run.engine = ev.string("engine").value_or("?");
            run.first_line = lineno;
            if (const nautilus::obs::FieldValue* f = ev.find("resumed"))
                if (const bool* b = std::get_if<bool>(f)) run.resumed = *b;
            run.workers = ev.unsigned_int("workers").value_or(0);
            run.distinct_at_start = ev.unsigned_int("distinct_at_start").value_or(0);
            run.attempts_at_start = ev.unsigned_int("attempts_at_start").value_or(0);
            run.retries_at_start = ev.unsigned_int("retries_at_start").value_or(0);
            runs.push_back(std::move(run));
            open_run = runs.size() - 1;
        }
        else if (ev.type == "eval_fault" || ev.type == "quarantine" ||
                 ev.type == "checkpoint") {
            if (open_run) {
                RunAgg& run = runs[*open_run];
                if (ev.type == "eval_fault") ++run.fault_events;
                else if (ev.type == "quarantine") ++run.quarantine_events;
                else ++run.checkpoint_events;
            }
            else if (check) {
                ++parse_errors;
                std::fprintf(stderr, "%s:%zu: %s outside any run\n", path.c_str(), lineno,
                             ev.type.c_str());
            }
        }
        else if (ev.type == "eval_wave") {
            if (open_run) {
                RunAgg& run = runs[*open_run];
                ++run.waves;
                run.items += ev.unsigned_int("size").value_or(0);
                run.fresh += ev.unsigned_int("fresh").value_or(0);
                run.hits += ev.unsigned_int("hits").value_or(0);
                run.waits += ev.unsigned_int("waits").value_or(0);
                run.wave_seconds += ev.number("seconds").value_or(0.0);
            }
            else if (check) {
                ++parse_errors;
                std::fprintf(stderr, "%s:%zu: eval_wave outside any run\n", path.c_str(),
                             lineno);
            }
        }
        else if (ev.type == "run_end") {
            if (open_run) {
                RunAgg& run = runs[*open_run];
                run.distinct_evals = ev.unsigned_int("distinct_evals");
                run.total_calls = ev.unsigned_int("total_calls");
                run.attempts = ev.unsigned_int("attempts");
                run.retries = ev.unsigned_int("retries");
                run.quarantined = ev.unsigned_int("quarantined");
                run.store_hits = ev.unsigned_int("store_hits").value_or(0);
                run.store_misses = ev.unsigned_int("store_misses").value_or(0);
                run.best = ev.number("best");
                if (const nautilus::obs::FieldValue* f = ev.find("feasible"))
                    if (const bool* b = std::get_if<bool>(f)) run.feasible = *b;
                last_closed = open_run;
                open_run.reset();
            }
            else if (check) {
                ++parse_errors;
                std::fprintf(stderr, "%s:%zu: run_end without run_start\n", path.c_str(),
                             lineno);
            }
        }
        else if (ev.type == "breed") {
            bias_draws += ev.unsigned_int("bias_draws").value_or(0);
            target_draws += ev.unsigned_int("target_draws").value_or(0);
            uniform_draws += ev.unsigned_int("uniform_draws").value_or(0);
            genes_mutated += ev.unsigned_int("genes_mutated").value_or(0);
            if (open_run) {
                if (const std::optional<std::uint64_t> gen = ev.unsigned_int("gen")) {
                    GenBreed& breed = runs[*open_run].breed_gens[*gen];
                    breed.children += ev.unsigned_int("children").value_or(0);
                    breed.elites += ev.unsigned_int("elites").value_or(0);
                    breed.uniform += ev.unsigned_int("uniform_draws").value_or(0);
                    breed.bias += ev.unsigned_int("bias_draws").value_or(0);
                    breed.target += ev.unsigned_int("target_draws").value_or(0);
                }
            }
        }
        else if (ev.type == "generation") {
            // NSGA-II reports draws on the generation event instead of breed.
            bias_draws += ev.unsigned_int("bias_draws").value_or(0);
            target_draws += ev.unsigned_int("target_draws").value_or(0);
            uniform_draws += ev.unsigned_int("uniform_draws").value_or(0);
            genes_mutated += ev.unsigned_int("genes_mutated").value_or(0);
            if (open_run) {
                const std::optional<std::uint64_t> gen = ev.unsigned_int("gen");
                const std::optional<std::uint64_t> born = ev.unsigned_int("born");
                if (gen && born) {
                    RunAgg& run = runs[*open_run];
                    run.born_gens[*gen] += *born;
                    GenBreed& draw = run.draw_gens[*gen];
                    draw.uniform += ev.unsigned_int("uniform_draws").value_or(0);
                    draw.bias += ev.unsigned_int("bias_draws").value_or(0);
                    draw.target += ev.unsigned_int("target_draws").value_or(0);
                }
            }
        }
        else if (ev.type == "birth") {
            if (!open_run) {
                if (check) {
                    ++parse_errors;
                    std::fprintf(stderr, "%s:%zu: birth outside any run\n", path.c_str(),
                                 lineno);
                }
                continue;
            }
            RunAgg& run = runs[*open_run];
            const std::uint64_t id = ev.unsigned_int("id").value_or(0);
            if (!run.first_birth_id) run.first_birth_id = id;
            // Ids are minted densely: each birth is first_id + count so far.
            if (id != *run.first_birth_id + run.births_in_window) {
                ++parse_errors;
                std::fprintf(stderr, "%s:%zu: birth id %llu breaks the dense sequence\n",
                             path.c_str(), lineno, static_cast<unsigned long long>(id));
            }
            ++run.births_in_window;
            // Ancestry is acyclic: parents are always older (smaller id).
            for (const char* key : {"pa", "pb"}) {
                if (const std::optional<std::uint64_t> parent = ev.unsigned_int(key)) {
                    if (*parent >= id) {
                        ++parse_errors;
                        std::fprintf(stderr,
                                     "%s:%zu: birth %llu has %s %llu >= its own id\n",
                                     path.c_str(), lineno,
                                     static_cast<unsigned long long>(id), key,
                                     static_cast<unsigned long long>(*parent));
                    }
                }
            }
            const std::string op = ev.string("op").value_or("?");
            if (op == "init" || op == "resume") ++run.roots;
            else {
                if (op == "elite") ++run.elite_births;
                else if (op == "mutation") ++run.mutation_births;
                else if (op == "crossover") ++run.crossover_births;
                else if (check) {
                    ++parse_errors;
                    std::fprintf(stderr, "%s:%zu: birth with unknown op '%s'\n",
                                 path.c_str(), lineno, op.c_str());
                }
                const std::uint64_t gen = ev.unsigned_int("gen").value_or(0);
                GenBirths& gb = run.birth_gens[gen];
                ++gb.total;
                if (op == "elite") ++gb.elites;
                for (const char c : ev.string("origins").value_or("")) {
                    if (c == 'u') ++gb.uniform;
                    else if (c == 'b') ++gb.bias;
                    else if (c == 't') ++gb.target;
                }
            }
        }
        else if (ev.type == "job_summary") {
            if (last_closed) {
                RunAgg& run = runs[*last_closed];
                run.job_distinct = ev.unsigned_int("distinct_evals");
                run.job_fresh = ev.unsigned_int("fresh_evals");
                run.job_store_hits = ev.unsigned_int("store_hits");
                run.job_retries = ev.unsigned_int("retries");
                run.job_workers = ev.unsigned_int("workers");
            }
            else if (check) {
                ++parse_errors;
                std::fprintf(stderr, "%s:%zu: job_summary without a completed run\n",
                             path.c_str(), lineno);
            }
        }
        else if (ev.type == "lineage_summary") {
            if (open_run) {
                RunAgg& run = runs[*open_run];
                run.sum_births = ev.unsigned_int("births");
                run.sum_births_at_start = ev.unsigned_int("births_at_start").value_or(0);
                run.sum_roots = ev.unsigned_int("roots").value_or(0);
                run.sum_elites = ev.unsigned_int("elites").value_or(0);
                run.sum_mutation = ev.unsigned_int("mutation_births").value_or(0);
                run.sum_crossover = ev.unsigned_int("crossover_births").value_or(0);
            }
            else if (check) {
                ++parse_errors;
                std::fprintf(stderr, "%s:%zu: lineage_summary outside any run\n",
                             path.c_str(), lineno);
            }
        }
    }

    const std::size_t lines = reader.lines();
    parse_errors += reader.parse_errors();
    if (lines == 0) {
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

    // -- validation ---------------------------------------------------------
    std::size_t accounting_errors = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunAgg& run = runs[i];
        if (!run.distinct_evals) {
            if (check) {
                ++accounting_errors;
                std::fprintf(stderr, "run %zu (%s, line %zu): run_start without run_end\n",
                             i, run.engine.c_str(), run.first_line);
            }
            continue;
        }
        // Resumed runs restored distinct_at_start evaluations from the
        // checkpoint; only the delta was freshly charged in this trace.
        const std::uint64_t expect_fresh = *run.distinct_evals - run.distinct_at_start;
        if (run.fresh != expect_fresh) {
            ++accounting_errors;
            std::fprintf(stderr,
                         "run %zu (%s): summed wave fresh %llu != run distinct_evals %llu"
                         " - distinct_at_start %llu\n",
                         i, run.engine.c_str(),
                         static_cast<unsigned long long>(run.fresh),
                         static_cast<unsigned long long>(*run.distinct_evals),
                         static_cast<unsigned long long>(run.distinct_at_start));
        }
        // Guard invariant: every cache miss is exactly one guarded call --
        // except misses the persistent store answered, which never reach the
        // guard -- and each guarded call makes 1 + retries attempts, so
        //   attempts - attempts_at_start
        //     == fresh - store_hits + (retries - retries_at_start).
        if (run.attempts && run.retries) {
            const std::uint64_t d_attempts = *run.attempts - run.attempts_at_start;
            const std::uint64_t d_retries = *run.retries - run.retries_at_start;
            if (d_attempts + run.store_hits != run.fresh + d_retries) {
                ++accounting_errors;
                std::fprintf(stderr,
                             "run %zu (%s): attempts %llu != fresh %llu - store_hits %llu"
                             " + retries %llu\n",
                             i, run.engine.c_str(),
                             static_cast<unsigned long long>(d_attempts),
                             static_cast<unsigned long long>(run.fresh),
                             static_cast<unsigned long long>(run.store_hits),
                             static_cast<unsigned long long>(d_retries));
            }
        }
        if (run.items != run.fresh + run.hits) {
            ++accounting_errors;
            std::fprintf(stderr,
                         "run %zu (%s): wave items %llu != fresh %llu + hits %llu\n", i,
                         run.engine.c_str(), static_cast<unsigned long long>(run.items),
                         static_cast<unsigned long long>(run.fresh),
                         static_cast<unsigned long long>(run.hits));
        }
        // -- job_summary reconciliation (DESIGN.md section 13) --------------
        // A server job's closing summary mirrors the run's own counters; any
        // divergence means the scheduler accounted cost the engine never
        // reported (or vice versa).
        if (run.job_distinct) {
            const auto jerr = [&](const char* what, std::uint64_t got,
                                  std::uint64_t want) {
                ++accounting_errors;
                std::fprintf(stderr, "run %zu (%s): job_summary %s %llu != run %llu\n", i,
                             run.engine.c_str(), what,
                             static_cast<unsigned long long>(got),
                             static_cast<unsigned long long>(want));
            };
            if (*run.job_distinct != *run.distinct_evals)
                jerr("distinct_evals", *run.job_distinct, *run.distinct_evals);
            if (run.job_workers && *run.job_workers != run.workers)
                jerr("workers", *run.job_workers, run.workers);
            if (run.job_store_hits && *run.job_store_hits != run.store_hits)
                jerr("store_hits", *run.job_store_hits, run.store_hits);
            if (run.job_retries && run.retries && *run.job_retries != *run.retries)
                jerr("retries", *run.job_retries, *run.retries);
            if (run.job_fresh) {
                const std::uint64_t hits = run.job_store_hits.value_or(0);
                const std::uint64_t want =
                    *run.distinct_evals - (hits < *run.distinct_evals
                                               ? hits
                                               : *run.distinct_evals);
                if (*run.job_fresh != want) jerr("fresh_evals", *run.job_fresh, want);
            }
        }
        // -- lineage conservation (DESIGN.md section 11) --------------------
        if (run.births_in_window == 0 && !run.sum_births) continue;
        const auto u64err = [&](const char* what, std::uint64_t got,
                                std::uint64_t want) {
            ++accounting_errors;
            std::fprintf(stderr, "run %zu (%s): %s %llu != expected %llu\n", i,
                         run.engine.c_str(), what, static_cast<unsigned long long>(got),
                         static_cast<unsigned long long>(want));
        };
        if (run.sum_births) {
            // Summary totals cover restored records too; the window only holds
            // births minted in this trace.
            if (*run.sum_births != run.sum_births_at_start + run.births_in_window)
                u64err("lineage_summary births", *run.sum_births,
                       run.sum_births_at_start + run.births_in_window);
            if (run.sum_births_at_start == 0) {
                if (run.sum_roots != run.roots)
                    u64err("lineage_summary roots", run.sum_roots, run.roots);
                if (run.sum_elites != run.elite_births)
                    u64err("lineage_summary elites", run.sum_elites, run.elite_births);
                if (run.sum_mutation != run.mutation_births)
                    u64err("lineage_summary mutation_births", run.sum_mutation,
                           run.mutation_births);
                if (run.sum_crossover != run.crossover_births)
                    u64err("lineage_summary crossover_births", run.sum_crossover,
                           run.crossover_births);
            }
        }
        else if (run.distinct_evals) {
            ++accounting_errors;
            std::fprintf(stderr, "run %zu (%s): births without a lineage_summary\n", i,
                         run.engine.c_str());
        }
        if (run.engine == "ga") {
            // Every breed event's offspring must be born, gene class for
            // gene class; every non-root birth must have a breed event.
            for (const auto& [gen, breed] : run.breed_gens) {
                const auto it = run.birth_gens.find(gen);
                const GenBirths births =
                    it != run.birth_gens.end() ? it->second : GenBirths{};
                if (births.total != breed.children + breed.elites)
                    u64err("gen births", births.total, breed.children + breed.elites);
                if (births.elites != breed.elites)
                    u64err("gen elite births", births.elites, breed.elites);
                if (births.uniform != breed.uniform)
                    u64err("gen uniform origins", births.uniform, breed.uniform);
                if (births.bias != breed.bias)
                    u64err("gen bias origins", births.bias, breed.bias);
                if (births.target != breed.target)
                    u64err("gen target origins", births.target, breed.target);
            }
            for (const auto& [gen, births] : run.birth_gens)
                if (run.breed_gens.find(gen) == run.breed_gens.end())
                    u64err("births without a breed event at gen", births.total, 0);
        }
        else if (run.engine == "nsga2") {
            for (const auto& [gen, born] : run.born_gens) {
                const auto it = run.birth_gens.find(gen);
                const GenBirths births =
                    it != run.birth_gens.end() ? it->second : GenBirths{};
                if (births.total != born) u64err("gen births vs born", births.total, born);
                const auto draw_it = run.draw_gens.find(gen);
                const GenBreed draws =
                    draw_it != run.draw_gens.end() ? draw_it->second : GenBreed{};
                if (births.uniform != draws.uniform)
                    u64err("gen uniform origins", births.uniform, draws.uniform);
                if (births.bias != draws.bias)
                    u64err("gen bias origins", births.bias, draws.bias);
                if (births.target != draws.target)
                    u64err("gen target origins", births.target, draws.target);
            }
        }
    }

    if (check) {
        if (parse_errors > 0 || accounting_errors > 0) {
            std::fprintf(stderr,
                         "trace_inspect: FAIL (%zu parse errors, %zu accounting errors)\n",
                         parse_errors, accounting_errors);
            return 1;
        }
        std::printf("trace_inspect: OK (%zu events, %zu runs, accounting consistent)\n",
                    lines, runs.size());
        return 0;
    }

    // -- summary ------------------------------------------------------------
    std::printf("trace: %s (%zu events, %.3f s span)\n", path.c_str(), lines, last_t);
    std::printf("events by type:\n");
    for (const auto& [type, n] : counts)
        std::printf("  %-14s %8llu\n", type.c_str(), static_cast<unsigned long long>(n));

    if (!spans.empty()) {
        std::printf("span timings:\n");
        for (const auto& [name, agg] : spans)
            std::printf("  %-14s %8llu x %10.4f s total\n", name.c_str(),
                        static_cast<unsigned long long>(agg.count), agg.seconds);
    }

    if (!runs.empty()) {
        std::printf("runs:\n");
        std::printf("  %3s  %-8s %6s %8s %9s %8s %6s %9s %12s\n", "#", "engine", "waves",
                    "items", "distinct", "hits", "hit%", "eval s", "best");
        std::uint64_t total_items = 0;
        std::uint64_t total_fresh = 0;
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const RunAgg& run = runs[i];
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
            if (run.best && run.feasible) std::printf("%12.3f", *run.best);
            else std::printf("%12s", "-");
            if (run.resumed) std::printf("  [resumed @%llu]",
                                         static_cast<unsigned long long>(run.distinct_at_start));
            if (run.fault_events > 0 || run.quarantine_events > 0)
                std::printf("  [faults %llu, quarantined %llu]",
                            static_cast<unsigned long long>(run.fault_events),
                            static_cast<unsigned long long>(run.quarantine_events));
            if (run.checkpoint_events > 0)
                std::printf("  [checkpoints %llu]",
                            static_cast<unsigned long long>(run.checkpoint_events));
            if (!run.distinct_evals) std::printf("  [unterminated]");
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

    const std::uint64_t draws = bias_draws + target_draws + uniform_draws;
    if (draws > 0) {
        std::printf("mutation draws: %llu genes (bias %.1f%%, target %.1f%%, uniform "
                    "%.1f%%)\n",
                    static_cast<unsigned long long>(genes_mutated),
                    100.0 * static_cast<double>(bias_draws) / static_cast<double>(draws),
                    100.0 * static_cast<double>(target_draws) / static_cast<double>(draws),
                    100.0 * static_cast<double>(uniform_draws) /
                        static_cast<double>(draws));
    }

    if (accounting_errors > 0) {
        std::fprintf(stderr, "trace_inspect: %zu accounting inconsistencies (see above)\n",
                     accounting_errors);
        return 1;
    }
    return 0;
}
