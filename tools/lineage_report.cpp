// lineage_report: explain *why* a search found what it found, from the
// lineage events in a JSONL trace (DESIGN.md section 11).
//
//   lineage_report run.jsonl           per-run report: hint-class efficacy
//                                      table (offspring produced -> survived
//                                      -> improved-best), winner gene
//                                      attribution, winner ancestry tree
//   lineage_report run.jsonl --run N   report only run N (0-based)
//
// The report is driven by each run's `lineage_summary` event; when the run
// started from scratch (births_at_start == 0) the tool also rebuilds the
// birth-record table from the `birth` events, re-derives the attribution
// with obs::summarize_lineage and fails (exit 1) if the two disagree --
// the same arithmetic double-entry the engines used, done independently.
//
// Exit codes: 0 report printed, 1 unreadable/invalid trace or cross-check
// mismatch, 2 usage error.

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "obs/lineage.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"

using nautilus::obs::BirthOp;
using nautilus::obs::BirthRecord;
using nautilus::obs::GeneOrigin;
using nautilus::obs::LineageSummary;
using nautilus::obs::TraceEvent;

namespace {

struct RunLineage {
    std::string engine;
    std::size_t first_line = 0;
    std::vector<BirthRecord> records;  // dense only when births_at_start == 0
    bool dense = true;                 // ids are 0..records.size()-1
    bool have_summary = false;
    LineageSummary summary;
};

const char* usage_text()
{
    return "usage: %s TRACE.jsonl [--run N]\n";
}

[[noreturn]] void usage(const char* argv0)
{
    std::fprintf(stderr, usage_text(), argv0);
    std::exit(2);
}

[[noreturn]] void help(const char* argv0)
{
    std::printf(usage_text(), argv0);
    std::printf("  --run N     report only run N (0-based; default: all runs)\n"
                "  -h, --help  show this help\n");
    std::exit(0);
}

std::uint64_t field_u64(const TraceEvent& ev, const char* key)
{
    return ev.unsigned_int(key).value_or(0);
}

LineageSummary parse_summary(const TraceEvent& ev)
{
    LineageSummary s;
    s.births = field_u64(ev, "births");
    s.births_at_start = field_u64(ev, "births_at_start");
    s.roots = field_u64(ev, "roots");
    s.elites = field_u64(ev, "elites");
    s.mutation_births = field_u64(ev, "mutation_births");
    s.crossover_births = field_u64(ev, "crossover_births");
    s.survived = field_u64(ev, "survived");
    s.improved = field_u64(ev, "improved");
    s.genes_fresh = field_u64(ev, "genes_fresh");
    s.genes_inherited = field_u64(ev, "genes_inherited");
    s.genes_crossed = field_u64(ev, "genes_crossed");
    s.genes_uniform = field_u64(ev, "genes_uniform");
    s.genes_bias = field_u64(ev, "genes_bias");
    s.genes_target = field_u64(ev, "genes_target");
    s.genes_repair = field_u64(ev, "genes_repair");
    s.offspring_uniform = field_u64(ev, "offspring_uniform");
    s.offspring_bias = field_u64(ev, "offspring_bias");
    s.offspring_target = field_u64(ev, "offspring_target");
    s.survived_uniform = field_u64(ev, "survived_uniform");
    s.survived_bias = field_u64(ev, "survived_bias");
    s.survived_target = field_u64(ev, "survived_target");
    s.improved_uniform = field_u64(ev, "improved_uniform");
    s.improved_bias = field_u64(ev, "improved_bias");
    s.improved_target = field_u64(ev, "improved_target");
    if (ev.find("winner") != nullptr) {
        s.have_winner = true;
        s.winner = field_u64(ev, "winner");
        s.winner_count = field_u64(ev, "winner_count");
        s.winner_genes = field_u64(ev, "winner_genes");
        s.winner_fresh = field_u64(ev, "winner_fresh");
        s.winner_uniform = field_u64(ev, "winner_uniform");
        s.winner_bias = field_u64(ev, "winner_bias");
        s.winner_target = field_u64(ev, "winner_target");
        s.winner_repair = field_u64(ev, "winner_repair");
        s.winner_depth = field_u64(ev, "winner_depth");
    }
    return s;
}

void print_efficacy(const LineageSummary& s)
{
    std::printf("  hint-class efficacy (offspring -> survived -> improved-best):\n");
    std::printf("    %-8s %10s %10s %10s\n", "class", "offspring", "survived",
                "improved");
    const auto row = [](const char* name, std::uint64_t off, std::uint64_t sur,
                        std::uint64_t imp) {
        std::printf("    %-8s %10llu %10llu %10llu\n", name,
                    static_cast<unsigned long long>(off),
                    static_cast<unsigned long long>(sur),
                    static_cast<unsigned long long>(imp));
    };
    row("bias", s.offspring_bias, s.survived_bias, s.improved_bias);
    row("target", s.offspring_target, s.survived_target, s.improved_target);
    row("uniform", s.offspring_uniform, s.survived_uniform, s.improved_uniform);
}

void print_winner(const LineageSummary& s)
{
    if (!s.have_winner) {
        std::printf("  winner: none (no feasible best)\n");
        return;
    }
    std::printf("  winner: id %llu (%llu genome%s, ancestry depth %llu)\n",
                static_cast<unsigned long long>(s.winner),
                static_cast<unsigned long long>(s.winner_count),
                s.winner_count == 1 ? "" : "s",
                static_cast<unsigned long long>(s.winner_depth));
    const auto pct = [&](std::uint64_t n) {
        return s.winner_genes > 0
                   ? 100.0 * static_cast<double>(n) / static_cast<double>(s.winner_genes)
                   : 0.0;
    };
    std::printf("  winner gene attribution (%llu genes):\n",
                static_cast<unsigned long long>(s.winner_genes));
    std::printf("    bias %llu (%.1f%%), target %llu (%.1f%%), uniform %llu (%.1f%%), "
                "fresh %llu (%.1f%%), repair %llu (%.1f%%)\n",
                static_cast<unsigned long long>(s.winner_bias), pct(s.winner_bias),
                static_cast<unsigned long long>(s.winner_target), pct(s.winner_target),
                static_cast<unsigned long long>(s.winner_uniform), pct(s.winner_uniform),
                static_cast<unsigned long long>(s.winner_fresh), pct(s.winner_fresh),
                static_cast<unsigned long long>(s.winner_repair), pct(s.winner_repair));
}

// Primary-parent ancestry chain of the winner, newest first.
void print_ancestry(const RunLineage& run)
{
    if (!run.dense || !run.summary.have_winner) return;
    const std::vector<BirthRecord>& records = run.records;
    std::uint64_t id = run.summary.winner;
    if (id >= records.size()) return;
    std::printf("  winner ancestry (primary-parent chain):\n");
    std::size_t hops = 0;
    while (id < records.size()) {
        const BirthRecord& rec = records[id];
        if (hops >= 24) {
            std::printf("    ... (%llu older ancestors elided)\n",
                        static_cast<unsigned long long>(rec.generation + 1));
            break;
        }
        std::printf("    gen %-5llu %-9s id %llu",
                    static_cast<unsigned long long>(rec.generation),
                    nautilus::obs::birth_op_name(rec.op),
                    static_cast<unsigned long long>(rec.id));
        if (rec.parent_a != nautilus::obs::k_no_parent) {
            std::printf("  pa %llu", static_cast<unsigned long long>(rec.parent_a));
            if (rec.op == BirthOp::crossover)
                std::printf(" pb %llu", static_cast<unsigned long long>(rec.parent_b));
        }
        if (!rec.origins.empty()) {
            std::uint64_t u = 0, b = 0, t = 0;
            for (const GeneOrigin o : rec.origins) {
                if (o == GeneOrigin::uniform) ++u;
                else if (o == GeneOrigin::bias) ++b;
                else if (o == GeneOrigin::target) ++t;
            }
            if (u + b + t > 0)
                std::printf("  mutated: bias %llu, target %llu, uniform %llu",
                            static_cast<unsigned long long>(b),
                            static_cast<unsigned long long>(t),
                            static_cast<unsigned long long>(u));
        }
        std::printf("\n");
        ++hops;
        if (rec.parent_a == nautilus::obs::k_no_parent) break;
        if (rec.parent_a >= rec.id) break;  // corrupt; acyclicity gate catches it
        id = rec.parent_a;
    }
}

// Re-derive the event-independent summary fields from rebuilt records and
// compare.  Survival/improvement flags are not replayed from the trace, so
// only birth-op tallies, gene-class totals and (for single-winner engines)
// the winner attribution take part.
std::size_t cross_check(const RunLineage& run, std::size_t run_index)
{
    if (!run.dense || !run.have_summary || run.summary.births_at_start != 0) return 0;
    std::vector<std::uint64_t> winners;
    if (run.summary.have_winner && run.summary.winner_count == 1)
        winners.push_back(run.summary.winner);
    const LineageSummary derived =
        summarize_lineage(run.records, winners, /*births_at_start=*/0);
    std::size_t mismatches = 0;
    const auto expect = [&](const char* what, std::uint64_t got, std::uint64_t want) {
        if (got == want) return;
        ++mismatches;
        std::fprintf(stderr, "lineage_report: run %zu: rebuilt %s %llu != summary %llu\n",
                     run_index, what, static_cast<unsigned long long>(got),
                     static_cast<unsigned long long>(want));
    };
    expect("births", derived.births, run.summary.births);
    expect("roots", derived.roots, run.summary.roots);
    expect("elites", derived.elites, run.summary.elites);
    expect("mutation_births", derived.mutation_births, run.summary.mutation_births);
    expect("crossover_births", derived.crossover_births, run.summary.crossover_births);
    expect("genes_fresh", derived.genes_fresh, run.summary.genes_fresh);
    expect("genes_inherited", derived.genes_inherited, run.summary.genes_inherited);
    expect("genes_crossed", derived.genes_crossed, run.summary.genes_crossed);
    expect("genes_uniform", derived.genes_uniform, run.summary.genes_uniform);
    expect("genes_bias", derived.genes_bias, run.summary.genes_bias);
    expect("genes_target", derived.genes_target, run.summary.genes_target);
    expect("genes_repair", derived.genes_repair, run.summary.genes_repair);
    if (!winners.empty()) {
        expect("winner_genes", derived.winner_genes, run.summary.winner_genes);
        expect("winner_fresh", derived.winner_fresh, run.summary.winner_fresh);
        expect("winner_uniform", derived.winner_uniform, run.summary.winner_uniform);
        expect("winner_bias", derived.winner_bias, run.summary.winner_bias);
        expect("winner_target", derived.winner_target, run.summary.winner_target);
        expect("winner_repair", derived.winner_repair, run.summary.winner_repair);
        expect("winner_depth", derived.winner_depth, run.summary.winner_depth);
    }
    return mismatches;
}

}  // namespace

int main(int argc, char** argv)
{
    std::string path;
    std::optional<std::size_t> only_run;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0)
            help(argv[0]);
        else if (std::strcmp(argv[i], "--run") == 0) {
            if (i + 1 >= argc) usage(argv[0]);
            char* end = nullptr;
            const unsigned long long n = std::strtoull(argv[++i], &end, 10);
            if (end == argv[i] || *end != '\0') usage(argv[0]);
            only_run = static_cast<std::size_t>(n);
        }
        else if (argv[i][0] == '-') {
            std::fprintf(stderr, "lineage_report: unknown option '%s'\n", argv[i]);
            usage(argv[0]);
        }
        else if (path.empty()) path = argv[i];
        else usage(argv[0]);
    }
    if (path.empty()) usage(argv[0]);

    nautilus::obs::TraceReader reader{path};
    if (!reader.is_open()) {
        std::fprintf(stderr, "lineage_report: cannot read %s\n", path.c_str());
        return 1;
    }

    std::vector<RunLineage> runs;
    std::optional<std::size_t> open_run;
    std::size_t parse_errors = 0;

    while (reader.next()) {
        const TraceEvent& ev = reader.event();
        const std::size_t lineno = reader.line();
        if (ev.type == "run_start") {
            RunLineage run;
            run.engine = ev.string("engine").value_or("?");
            run.first_line = lineno;
            runs.push_back(std::move(run));
            open_run = runs.size() - 1;
        }
        else if (ev.type == "run_end") {
            open_run.reset();
        }
        else if (ev.type == "birth" && open_run) {
            RunLineage& run = runs[*open_run];
            BirthRecord rec;
            rec.id = field_u64(ev, "id");
            rec.generation = field_u64(ev, "gen");
            if (!nautilus::obs::birth_op_from_name(ev.string("op").value_or(""), rec.op)) {
                ++parse_errors;
                std::fprintf(stderr, "%s:%zu: birth with unknown op\n", path.c_str(),
                             lineno);
                continue;
            }
            if (const std::optional<std::uint64_t> pa = ev.unsigned_int("pa"))
                rec.parent_a = *pa;
            if (const std::optional<std::uint64_t> pb = ev.unsigned_int("pb"))
                rec.parent_b = *pb;
            const std::string codes = ev.string("origins").value_or("-");
            if (codes != "-" &&
                !nautilus::obs::origins_from_codes(codes, rec.origins)) {
                ++parse_errors;
                std::fprintf(stderr, "%s:%zu: birth with bad origin codes\n",
                             path.c_str(), lineno);
                continue;
            }
            if (rec.id != run.records.size()) run.dense = false;
            run.records.push_back(std::move(rec));
        }
        else if (ev.type == "lineage_summary" && open_run) {
            RunLineage& run = runs[*open_run];
            run.have_summary = true;
            run.summary = parse_summary(ev);
        }
    }
    parse_errors += reader.parse_errors();

    if (runs.empty()) {
        std::fprintf(stderr, "lineage_report: %s holds no runs\n", path.c_str());
        return 1;
    }
    if (only_run && *only_run >= runs.size()) {
        std::fprintf(stderr, "lineage_report: run %zu out of range (%zu runs)\n",
                     *only_run, runs.size());
        return 1;
    }

    std::size_t mismatches = 0;
    std::size_t reported = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (only_run && *only_run != i) continue;
        const RunLineage& run = runs[i];
        if (!run.have_summary) {
            std::printf("run %zu (%s, line %zu): no lineage recorded\n", i,
                        run.engine.c_str(), run.first_line);
            continue;
        }
        ++reported;
        const LineageSummary& s = run.summary;
        std::printf("run %zu (%s):\n", i, run.engine.c_str());
        std::printf("  births %llu (roots %llu, elites %llu, mutation %llu, "
                    "crossover %llu)%s\n",
                    static_cast<unsigned long long>(s.births),
                    static_cast<unsigned long long>(s.roots),
                    static_cast<unsigned long long>(s.elites),
                    static_cast<unsigned long long>(s.mutation_births),
                    static_cast<unsigned long long>(s.crossover_births),
                    s.births_at_start > 0 ? "  [resumed: ancestry tree spans the"
                                            " restored records]"
                                          : "");
        std::printf("  survived %llu, improved-best %llu\n",
                    static_cast<unsigned long long>(s.survived),
                    static_cast<unsigned long long>(s.improved));
        print_efficacy(s);
        print_winner(s);
        print_ancestry(run);
        mismatches += cross_check(run, i);
    }

    if (parse_errors > 0 || mismatches > 0) {
        std::fprintf(stderr, "lineage_report: FAIL (%zu parse errors, %zu cross-check"
                             " mismatches)\n",
                     parse_errors, mismatches);
        return 1;
    }
    if (reported == 0)
        std::printf("lineage_report: no lineage events in %s\n", path.c_str());
    return 0;
}
