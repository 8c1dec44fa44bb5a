// lineage_report: explain *why* a search found what it found, from the
// lineage events in a JSONL trace (DESIGN.md section 11).
//
//   lineage_report run.jsonl           per-run report: hint-class efficacy
//                                      table (offspring produced -> survived
//                                      -> improved-best), winner gene
//                                      attribution, winner ancestry tree
//   lineage_report run.jsonl --run N   report only run N (0-based)
//
// The report is driven by each run's `lineage_summary` event, read through
// obs::RunTraceModel.  The tool fails (exit 1) on the model's lineage
// conservation violations for the runs it reports -- among them a
// lineage_summary that disagrees with the engines' own summarize_lineage
// replayed over the trace's birth events -- and on a structurally broken
// trace (a birth outside any run, a run that never ends, a broken birth
// sequence), exactly as on an unparseable line.
//
// Exit codes: 0 report printed, 1 unreadable/invalid trace or lineage
// violation, 2 usage error.

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "obs/lineage.hpp"
#include "obs/trace_model.hpp"
#include "obs/trace_reader.hpp"

#include "flags.hpp"

using nautilus::obs::BirthOp;
using nautilus::obs::BirthRecord;
using nautilus::obs::GeneOrigin;
using nautilus::obs::LineageSummary;
using nautilus::obs::RunTrace;

namespace {

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
void print_ancestry(const RunTrace& run)
{
    if (!run.dense() || !run.lineage->have_winner) return;
    const std::vector<BirthRecord>& records = run.births;
    std::uint64_t id = run.lineage->winner;
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

}  // namespace

int main(int argc, char** argv)
{
    std::string path;
    std::optional<std::size_t> only_run;
    const nautilus::tools::FlagParser flags{argv[0], usage, "lineage_report: "};
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0)
            help(argv[0]);
        else if (std::strcmp(argv[i], "--run") == 0) {
            if (i + 1 >= argc) usage(argv[0]);
            only_run = static_cast<std::size_t>(flags.u64("--run", argv[++i]));
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
    const nautilus::obs::RunTraceModel model = nautilus::obs::RunTraceModel::read(reader);
    for (const nautilus::obs::TraceError& e : model.errors)
        std::fprintf(stderr, "%s\n", e.text.c_str());
    const std::size_t parse_errors = model.unparseable + model.errors.size();

    if (model.runs.empty()) {
        std::fprintf(stderr, "lineage_report: %s holds no runs\n", path.c_str());
        return 1;
    }
    if (only_run && *only_run >= model.runs.size()) {
        std::fprintf(stderr, "lineage_report: run %zu out of range (%zu runs)\n",
                     *only_run, model.runs.size());
        return 1;
    }

    const std::vector<nautilus::obs::TraceViolation> violations = model.check();
    std::size_t mismatches = 0;
    std::size_t reported = 0;
    for (std::size_t i = 0; i < model.runs.size(); ++i) {
        if (only_run && *only_run != i) continue;
        const RunTrace& run = model.runs[i];
        if (!run.lineage) {
            std::printf("run %zu (%s, line %zu): no lineage recorded\n", i,
                        run.engine.c_str(), run.first_line);
        }
        else {
            ++reported;
            const LineageSummary& s = *run.lineage;
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
        }
        for (const nautilus::obs::TraceViolation& v : violations) {
            if (v.run != i || !v.lineage) continue;
            ++mismatches;
            std::fprintf(stderr, "lineage_report: run %zu: %s\n", i, v.text.c_str());
        }
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
