#include "obs/trace_model.hpp"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <variant>

#include "obs/format.hpp"
#include "obs/trace_reader.hpp"

namespace nautilus::obs {

namespace {

std::string u64(std::uint64_t v)
{
    return std::to_string(v);
}

bool flag(const TraceEvent& event, const char* key)
{
    const FieldValue* f = event.find(key);
    const bool* b = f != nullptr ? std::get_if<bool>(f) : nullptr;
    return b != nullptr && *b;
}

std::uint64_t field(const TraceEvent& event, const char* key)
{
    return event.unsigned_int(key).value_or(0);
}

const std::vector<double>* numbers(const TraceEvent& event, const char* key)
{
    const FieldValue* f = event.find(key);
    return f != nullptr ? std::get_if<std::vector<double>>(f) : nullptr;
}

// The space-separated tokens of `text`; none for an empty string.
std::vector<std::string_view> tokens(std::string_view text)
{
    std::vector<std::string_view> out;
    if (text.empty()) return out;
    for (std::size_t at = 0;;) {
        const std::size_t space = text.find(' ', at);
        out.push_back(text.substr(at, space - at));
        if (space == std::string_view::npos) return out;
        at = space + 1;
    }
}

// Non-root births of one generation, tallied from the birth records.
struct GenBirths {
    std::uint64_t total = 0;
    std::uint64_t elites = 0;
    std::uint64_t uniform = 0;
    std::uint64_t bias = 0;
    std::uint64_t target = 0;
};

std::map<std::uint64_t, GenBirths> births_by_gen(const RunTrace& run)
{
    std::map<std::uint64_t, GenBirths> gens;
    for (const BirthRecord& rec : run.births) {
        if (rec.op == BirthOp::init || rec.op == BirthOp::resume) continue;
        GenBirths& gb = gens[rec.generation];
        ++gb.total;
        if (rec.op == BirthOp::elite) ++gb.elites;
        for (const GeneOrigin o : rec.origins) {
            if (o == GeneOrigin::uniform) ++gb.uniform;
            else if (o == GeneOrigin::bias) ++gb.bias;
            else if (o == GeneOrigin::target) ++gb.target;
        }
    }
    return gens;
}

// Lineage conservation (DESIGN.md section 11) for one terminated run.
void check_lineage(const RunTrace& run, std::size_t index, std::vector<TraceViolation>& out)
{
    if (run.births.empty() && !run.lineage) return;
    const auto expect = [&](const std::string& what, std::uint64_t got, std::uint64_t want) {
        if (got != want)
            out.push_back({index, true, what + " " + u64(got) + " != expected " + u64(want)});
    };
    if (!run.lineage) {
        out.push_back({index, true, "births without a lineage_summary"});
    }
    else if (run.lineage->births_at_start == 0 && run.dense()) {
        // A run recorded from scratch: replay its births through the
        // engines' own summarize_lineage and compare every counter the
        // replay can know.  Survival flags are not in the trace.
        const LineageSummary& s = *run.lineage;
        std::vector<std::uint64_t> winners;
        if (s.have_winner && s.winner_count == 1) winners.push_back(s.winner);
        const LineageSummary replay = summarize_lineage(run.births, winners, 0);
        for (const LineageField& f : lineage_summary_fields())
            if (f.replayed) expect(std::string{"lineage_summary "} + f.name, s.*f.member,
                                   replay.*f.member);
        if (!winners.empty())
            for (const LineageField& f : lineage_winner_fields())
                if (f.replayed) expect(std::string{"lineage_summary "} + f.name, s.*f.member,
                                       replay.*f.member);
    }
    else {
        // Summary totals cover restored records too; the window only holds
        // births minted in this trace.
        expect("lineage_summary births", run.lineage->births,
               run.lineage->births_at_start + run.births.size());
    }

    const std::map<std::uint64_t, GenBirths> births = births_by_gen(run);
    const auto births_at = [&](std::uint64_t gen) {
        const auto it = births.find(gen);
        return it != births.end() ? it->second : GenBirths{};
    };
    const auto expect_origins = [&](const GenBirths& got, const GenDraws& want) {
        expect("gen uniform origins", got.uniform, want.uniform);
        expect("gen bias origins", got.bias, want.bias);
        expect("gen target origins", got.target, want.target);
    };
    if (run.engine == "ga") {
        // Every breed event's offspring must be born, gene class for gene
        // class; every non-root birth must have a breed event.
        for (const auto& [gen, breed] : run.breeds) {
            const GenBirths got = births_at(gen);
            expect("gen births", got.total, breed.children + breed.elites);
            expect("gen elite births", got.elites, breed.elites);
            expect_origins(got, breed);
        }
        for (const auto& [gen, got] : births)
            if (run.breeds.find(gen) == run.breeds.end())
                expect("births without a breed event at gen", got.total, 0);
    }
    else if (run.engine == "nsga2") {
        for (const auto& [gen, draws] : run.generations) {
            const GenBirths got = births_at(gen);
            expect("gen births vs born", got.total, draws.born);
            expect_origins(got, draws);
        }
    }
}

}  // namespace

std::uint64_t RunTrace::distinct_in_trace() const
{
    const std::uint64_t end = distinct_evals.value_or(0);
    return end > distinct_at_start ? end - distinct_at_start : 0;
}

bool RunTrace::dense() const
{
    for (std::size_t i = 0; i < births.size(); ++i)
        if (births[i].id != i) return false;
    return true;
}

// The fields every birth carries, decoded from a v1 `birth` event or from
// one column entry of a v2 `births` record.
struct RunTraceModel::Birth {
    std::uint64_t id = 0;
    std::uint64_t generation = 0;
    std::optional<BirthOp> op;  // absent when op_text names no op
    std::string op_text;
    std::optional<std::uint64_t> parent_a;
    std::optional<std::uint64_t> parent_b;
    std::string_view codes;
};

RunTraceModel::RunTraceModel(std::string trace_path) : path(std::move(trace_path)) {}

RunTraceModel RunTraceModel::read(TraceReader& reader, std::vector<TraceEvent>* events)
{
    RunTraceModel model{reader.path()};
    while (reader.next()) {
        model.add(reader.event(), reader.line());
        if (events != nullptr) events->push_back(reader.event());
    }
    model.lines = reader.lines();
    model.unparseable = reader.parse_errors();
    model.finish();
    return model;
}

void RunTraceModel::error(std::size_t line, const std::string& what)
{
    errors.push_back({line, path + ":" + std::to_string(line) + ": " + what});
}

RunTrace* RunTraceModel::in_run(const TraceEvent& event, std::size_t line)
{
    if (open_) return &runs[*open_];
    error(line, event.type + " outside any run");
    return nullptr;
}

void RunTraceModel::add(const TraceEvent& ev, std::size_t line)
{
    // A births record stands for one birth event per op it carries.
    const bool columnar = ev.type == "births";
    const std::size_t n = columnar ? ev.string("ops").value_or("").size() : 1;
    events += n;
    counts[columnar ? "birth" : ev.type] += n;
    last_t = ev.t;

    if (ev.type == "span") {
        SpanTotals& span = spans[ev.string("name").value_or("?")];
        ++span.count;
        span.seconds += ev.number("seconds").value_or(0.0);
    }
    else if (ev.type == "run_start") {
        RunTrace& run = runs.emplace_back();
        run.engine = ev.string("engine").value_or("?");
        run.first_line = line;
        run.resumed = flag(ev, "resumed");
        run.workers = field(ev, "workers");
        run.distinct_at_start = field(ev, "distinct_at_start");
        run.attempts_at_start = field(ev, "attempts_at_start");
        run.retries_at_start = field(ev, "retries_at_start");
        open_ = runs.size() - 1;
        next_birth_id_.reset();
        birth_type_.clear();
    }
    else if (ev.type == "run_end") {
        if (!open_) {
            error(line, "run_end without run_start");
            return;
        }
        RunTrace& run = runs[*open_];
        run.distinct_evals = ev.unsigned_int("distinct_evals");
        run.total_calls = ev.unsigned_int("total_calls");
        run.attempts = ev.unsigned_int("attempts");
        run.retries = ev.unsigned_int("retries");
        run.store_hits = field(ev, "store_hits");
        run.store_misses = field(ev, "store_misses");
        run.best = flag(ev, "feasible") ? ev.number("best") : std::nullopt;
        last_closed_ = open_;
        open_.reset();
    }
    else if (ev.type == "eval_wave") {
        if (RunTrace* run = in_run(ev, line)) {
            ++run->waves;
            run->items += field(ev, "size");
            run->fresh += field(ev, "fresh");
            run->hits += field(ev, "hits");
            run->wave_seconds += ev.number("seconds").value_or(0.0);
        }
    }
    else if (ev.type == "eval_fault") {
        if (RunTrace* run = in_run(ev, line)) ++run->faults;
    }
    else if (ev.type == "quarantine") {
        if (RunTrace* run = in_run(ev, line)) ++run->quarantines;
    }
    else if (ev.type == "checkpoint") {
        if (RunTrace* run = in_run(ev, line)) ++run->checkpoints;
    }
    else if (ev.type == "breed" || ev.type == "generation") {
        // The GA reports its draws on breed events, NSGA-II on generation.
        genes_mutated += field(ev, "genes_mutated");
        uniform_draws += field(ev, "uniform_draws");
        bias_draws += field(ev, "bias_draws");
        target_draws += field(ev, "target_draws");
        const std::optional<std::uint64_t> gen = ev.unsigned_int("gen");
        const std::optional<std::uint64_t> born = ev.unsigned_int("born");
        const bool breed = ev.type == "breed";
        if (!open_ || !gen || (!breed && !born)) return;
        RunTrace& run = runs[*open_];
        GenDraws& draws = breed ? run.breeds[*gen] : run.generations[*gen];
        draws.children += field(ev, "children");
        draws.elites += field(ev, "elites");
        draws.born += born.value_or(0);
        draws.uniform += field(ev, "uniform_draws");
        draws.bias += field(ev, "bias_draws");
        draws.target += field(ev, "target_draws");
    }
    else if (ev.type == "birth" || columnar) {
        RunTrace* run = in_run(ev, line);
        if (run == nullptr || !birth_layout(ev, line)) return;
        if (columnar) {
            add_births(*run, ev, line);
            return;
        }
        Birth birth;
        birth.id = field(ev, "id");
        birth.generation = field(ev, "gen");
        birth.op_text = ev.string("op").value_or("?");
        if (BirthOp op{}; birth_op_from_name(birth.op_text, op)) birth.op = op;
        birth.parent_a = ev.unsigned_int("pa");
        birth.parent_b = ev.unsigned_int("pb");
        const std::string codes = ev.string("origins").value_or("-");
        birth.codes = codes;
        add_birth(*run, birth, line);
    }
    else if (ev.type == "lineage_summary") {
        if (RunTrace* run = in_run(ev, line)) run->lineage = lineage_summary_from_event(ev);
    }
    else if (ev.type == "job_summary") {
        // Emitted after run_end, so it belongs to the most recently closed run.
        if (!last_closed_) {
            error(line, "job_summary without a completed run");
            return;
        }
        std::optional<JobCounts>& job = runs[*last_closed_].job;
        job.reset();
        if (const std::optional<std::uint64_t> distinct = ev.unsigned_int("distinct_evals"))
            job = JobCounts{*distinct, ev.unsigned_int("fresh_evals"),
                            ev.unsigned_int("store_hits"), ev.unsigned_int("retries"),
                            ev.unsigned_int("workers")};
    }
}

// One run, one birth layout.
bool RunTraceModel::birth_layout(const TraceEvent& ev, std::size_t line)
{
    if (birth_type_.empty()) birth_type_ = ev.type;
    if (ev.type == birth_type_) return true;
    error(line, "run mixes birth events (trace v1) and births records (v2)");
    return false;
}

// Trace format v2: `first` is the id of the record's first birth, the ids
// run on densely, and ops, pa, pb and origins hold one entry per birth.
void RunTraceModel::add_births(RunTrace& run, const TraceEvent& ev, std::size_t line)
{
    const std::optional<std::uint64_t> first = ev.unsigned_int("first");
    if (!first) {
        error(line, "births record without a valid first id");
        return;
    }
    const std::string ops = ev.string("ops").value_or("");
    const std::string origins = ev.string("origins").value_or("");
    const std::vector<std::string_view> codes = tokens(origins);
    const std::vector<double>* pa = numbers(ev, "pa");
    const std::vector<double>* pb = numbers(ev, "pb");
    const auto length = [](const std::vector<double>* v) { return v != nullptr ? v->size() : 0; };
    if (length(pa) != ops.size() || length(pb) != ops.size() || codes.size() != ops.size()) {
        error(line, "births columns differ in length: ops " + u64(ops.size()) + ", pa " +
                        u64(length(pa)) + ", pb " + u64(length(pb)) + ", origins " +
                        u64(codes.size()));
        next_birth_id_ = *first + ops.size();
        return;
    }
    if (next_birth_id_ && *first != *next_birth_id_)
        error(line, "births first " + u64(*first) + " breaks the dense sequence (expected " +
                        u64(*next_birth_id_) + ")");
    next_birth_id_ = *first;

    const std::uint64_t generation = field(ev, "gen");
    for (std::size_t i = 0; i < ops.size(); ++i) {
        Birth birth;
        birth.id = *first + i;
        birth.generation = generation;
        birth.op_text = std::string(1, ops[i]);
        if (BirthOp op{}; birth_op_from_code(ops[i], op)) birth.op = op;
        birth.codes = codes[i];
        // A parent column entry is null or an exact integer id.
        bool ids_ok = true;
        const auto parent = [&](const char* key, double v, std::optional<std::uint64_t>& out) {
            if (std::isnan(v)) return;
            if (v >= 0.0 && !std::signbit(v) && v < 0x1p53 && v == std::floor(v)) {
                out = static_cast<std::uint64_t>(v);
                return;
            }
            std::string text;
            append_double(text, v);
            error(line, "birth " + u64(birth.id) + " has " + key + " " + text +
                            ", not a birth id");
            ids_ok = false;
        };
        parent("pa", (*pa)[i], birth.parent_a);
        parent("pb", (*pb)[i], birth.parent_b);
        if (ids_ok) add_birth(run, birth, line);
        else ++*next_birth_id_;
    }
}

void RunTraceModel::add_birth(RunTrace& run, const Birth& birth, std::size_t line)
{
    BirthRecord rec;
    rec.id = birth.id;
    rec.generation = birth.generation;
    // Ids are minted densely: each birth is the run's first id plus the
    // number of births before it.
    if (!next_birth_id_) next_birth_id_ = rec.id;
    if (rec.id != (*next_birth_id_)++)
        error(line, "birth id " + u64(rec.id) + " breaks the dense sequence");
    // Ancestry is acyclic: parents are always older (smaller id).
    const auto parent = [&](const char* key, std::optional<std::uint64_t> id,
                            std::uint64_t& out) {
        if (!id) return;
        if (*id >= rec.id)
            error(line, "birth " + u64(rec.id) + " has " + key + " " + u64(*id) +
                            " >= its own id");
        out = *id;
    };
    parent("pa", birth.parent_a, rec.parent_a);
    parent("pb", birth.parent_b, rec.parent_b);
    if (!birth.op) {
        error(line, "birth with unknown op '" + birth.op_text + "'");
        return;
    }
    rec.op = *birth.op;
    if (!origins_from_codes(birth.codes, rec.origins)) {
        error(line, "birth with bad origin codes '" + std::string{birth.codes} + "'");
        return;
    }
    run.births.push_back(std::move(rec));
}

void RunTraceModel::finish()
{
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunTrace& run = runs[i];
        if (run.terminated()) continue;
        errors.push_back({run.first_line, "run " + std::to_string(i) + " (" + run.engine +
                                              ", line " + std::to_string(run.first_line) +
                                              "): run_start without run_end"});
    }
}

std::vector<TraceViolation> RunTraceModel::check() const
{
    std::vector<TraceViolation> out;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunTrace& run = runs[i];
        if (!run.terminated()) continue;
        const auto fail = [&](std::string text) { out.push_back({i, false, std::move(text)}); };
        // Resumed runs restored distinct_at_start evaluations from the
        // checkpoint; only the delta was freshly charged in this trace.
        if (run.fresh + run.distinct_at_start != *run.distinct_evals)
            fail("summed wave fresh " + u64(run.fresh) + " != run distinct_evals " +
                 u64(*run.distinct_evals) + " - distinct_at_start " +
                 u64(run.distinct_at_start));
        // Guard invariant: every cache miss is exactly one guarded call --
        // except misses the persistent store answered, which never reach the
        // guard -- and each guarded call makes 1 + retries attempts, so
        //   attempts - attempts_at_start
        //     == fresh - store_hits + (retries - retries_at_start).
        if (run.attempts && run.retries) {
            const std::uint64_t d_attempts = *run.attempts - run.attempts_at_start;
            const std::uint64_t d_retries = *run.retries - run.retries_at_start;
            if (d_attempts + run.store_hits != run.fresh + d_retries)
                fail("attempts " + u64(d_attempts) + " != fresh " + u64(run.fresh) +
                     " - store_hits " + u64(run.store_hits) + " + retries " + u64(d_retries));
        }
        if (run.items != run.fresh + run.hits)
            fail("wave items " + u64(run.items) + " != fresh " + u64(run.fresh) + " + hits " +
                 u64(run.hits));
        // A server job's closing summary mirrors the run's own counters
        // (DESIGN.md section 13); any divergence means the scheduler
        // accounted cost the engine never reported, or the reverse.
        if (run.job) {
            const JobCounts& job = *run.job;
            const std::uint64_t distinct = *run.distinct_evals;
            const auto mismatch = [&](const char* what, std::uint64_t got, std::uint64_t want) {
                if (got != want)
                    fail(std::string{"job_summary "} + what + " " + u64(got) + " != run " +
                         u64(want));
            };
            mismatch("distinct_evals", job.distinct_evals, distinct);
            if (job.workers) mismatch("workers", *job.workers, run.workers);
            if (job.store_hits) mismatch("store_hits", *job.store_hits, run.store_hits);
            if (job.retries && run.retries) mismatch("retries", *job.retries, *run.retries);
            if (job.fresh_evals) {
                const std::uint64_t hits = job.store_hits.value_or(0);
                mismatch("fresh_evals", *job.fresh_evals, distinct - std::min(hits, distinct));
            }
        }
        check_lineage(run, i, out);
    }
    return out;
}

}  // namespace nautilus::obs
