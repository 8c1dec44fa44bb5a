// The two standalone workloads: searches run back to back in one thread
// (a closed loop), with no trace, store, checkpoint, pool or server.
//
//   query_router_model  the paper-scale query on the live router model
//   figures_dataset     the four Fig. 4-7 queries on enumerated datasets
//
// Both share run_standalone.  A workload is a list of engine slots plus a
// rule that turns a job index into the searches of that job; run_standalone
// sets everything up several times, runs jobs until the window closes, then
// checks every search and derives the metrics.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "core/ga.hpp"
#include "core/nautilus.hpp"
#include "core/rng.hpp"
#include "exp/experiment.hpp"
#include "exp/query.hpp"
#include "fft/fft_generator.hpp"
#include "ip/dataset.hpp"
#include "noc/router_generator.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace nt = nautilus;
using nt::Direction;
using nt::ip::Metric;

namespace {

// Time and count of model calls and eval waves, fed by the wrapped EvalFn
// and the BatchObserver of the metered engines (one eval worker, so no
// synchronization is needed).
struct Meter {
    double model_s = 0.0;
    std::uint64_t model_calls = 0;
    double wave_s = 0.0;
    std::uint64_t waves = 0;
};

// Serialized JSONL size of every trace event, without keeping the events.
class CountingSink final : public nt::obs::TraceSink {
public:
    void write(const nt::obs::TraceEvent& event) override
    {
        const std::size_t n = nt::obs::to_jsonl(event).size() + 1;  // + newline
        const std::lock_guard lock{mutex_};
        bytes_ += n;
        ++events_;
    }
    std::uint64_t bytes() const
    {
        const std::lock_guard lock{mutex_};
        return bytes_;
    }
    std::uint64_t events() const
    {
        const std::lock_guard lock{mutex_};
        return events_;
    }

private:
    mutable std::mutex mutex_;
    std::uint64_t bytes_ = 0;
    std::uint64_t events_ = 0;
};

// One engine configuration of a workload.
struct Slot {
    std::string label;
    const nt::ip::IpGenerator* generator = nullptr;
    Metric metric = Metric::freq_mhz;
    Direction direction = Direction::maximize;
    bool strong = false;  // counts towards evals_to_1pct
    nt::GaConfig config;
    nt::HintSet hints;
    nt::EvalFn eval;  // what the engine evaluates (model or dataset lookup)
    std::unique_ptr<nt::GaEngine> plain;
    std::unique_ptr<nt::GaEngine> metered;  // traced runs only
};

struct Task {
    std::size_t slot = 0;
    std::uint64_t seed = 0;
};

struct Setup {
    std::vector<std::unique_ptr<nt::ip::IpGenerator>> generators;
    std::vector<nt::ip::Dataset> datasets;  // figures_dataset only
    std::vector<Slot> slots;
    Meter meter;

    Setup() = default;
    Setup(const Setup&) = delete;
    Setup& operator=(const Setup&) = delete;

    void build_engines(bool traced)
    {
        for (Slot& s : slots) {
            s.plain = std::make_unique<nt::GaEngine>(s.generator->space(), s.config,
                                                     s.direction, s.eval, s.hints);
            if (!traced) continue;
            nt::GaConfig cfg = s.config;
            cfg.eval_observer = [m = &meter](std::span<const nt::Genome>, double wall) {
                m->wave_s += wall;
                ++m->waves;
            };
            nt::EvalFn inner = s.eval;
            nt::EvalFn metered = [inner, m = &meter](const nt::Genome& g) {
                const auto t0 = Clock::now();
                const nt::Evaluation e = inner(g);
                m->model_s += seconds_between(t0, Clock::now());
                ++m->model_calls;
                return e;
            };
            s.metered = std::make_unique<nt::GaEngine>(s.generator->space(), cfg, s.direction,
                                                       metered, s.hints);
        }
    }
};

// What a standalone workload supplies to run_standalone.
struct Workload {
    const char* name = "";
    std::size_t setup_reps = 5;    // set-up is repeated and its median reported
    std::size_t quality_jobs = 1;  // jobs behind evals_to_1pct and the digest
    std::function<std::unique_ptr<Setup>()> setup;
    std::function<std::vector<Task>(std::size_t job)> tasks;
    // Best feasible value of each slot's metric over the whole space.
    std::function<std::vector<double>(const Setup&)> optima;
    // Extra checks after the window (figures_dataset: exp::Experiment
    // reproduces the timed searches); adds per-layer values when traced.
    std::function<void(const Setup&, const std::vector<std::vector<nt::Curve>>& first_jobs,
                       RunOutput&, Values& layers)>
        extra_checks;
    // Per-layer metric name of the isolated cost of one model call.
    const char* model_cost_metric = "model.router.eval_ns";
};

struct SearchRecord {
    std::size_t job = 0;
    std::size_t slot = 0;
    nt::Genome best_genome;
    nt::Evaluation best_eval;
    std::size_t distinct = 0;
    std::size_t calls = 0;
    std::size_t count = 1;  // searches that reported this (slot, best)

    SearchRecord(std::size_t j, std::size_t s, const nt::RunResult& r)
        : job(j), slot(s), best_genome(r.best_genome), best_eval(r.best_eval),
          distinct(r.distinct_evals), calls(r.total_eval_calls)
    {
    }
};

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b)
{
    nt::Rng rng{a ^ (0x9e3779b97f4a7c15ull * (b + 1))};
    return rng.next_u64();
}

bool better(Direction dir, double a, double b)
{
    return dir == Direction::maximize ? a > b : a < b;
}

// The value within 1% of `optimum` on the worse side.
double within_one_percent(Direction dir, double optimum)
{
    const double margin = 0.01 * std::fabs(optimum);
    return dir == Direction::maximize ? optimum - margin : optimum + margin;
}

bool same_bits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

RunOutput run_standalone(const Options& opt, const Workload& w)
{
    RunOutput out;

    // --- Set-up, repeated; the last one is used --------------------------
    // Set-up ends with one warm-up search per slot, so the window starts
    // with warm caches and the first search pays no lazy initialization.
    std::vector<double> setup_times;
    std::unique_ptr<Setup> setup;
    for (std::size_t rep = 0; rep < w.setup_reps; ++rep) {
        setup.reset();
        const auto t0 = Clock::now();
        setup = w.setup();
        setup->build_engines(opt.trace);
        for (const Slot& s : setup->slots) (void)s.plain->run(opt.seed);
        setup_times.push_back(seconds_between(t0, Clock::now()));
    }
    std::vector<Slot>& slots = setup->slots;

    // --- Traced runs: the benchmark's own tracing overhead ---------------
    // Job 0 runs once plain; the window below starts by running it again
    // metered, so the two timings compare identical work.
    double reference_job_s = 0.0;
    std::vector<SearchRecord> reference;
    if (opt.trace) {
        const auto t0 = Clock::now();
        for (const Task& t : w.tasks(0))
            reference.emplace_back(0, t.slot, slots[t.slot].plain->run(t.seed));
        reference_job_s = seconds_between(t0, Clock::now());
    }

    // --- Timed window ----------------------------------------------------
    // Bookkeeping stays bounded so peak_rss_mb does not grow with the
    // window: search percentiles are taken per job, and each distinct
    // (slot, best) is kept once for the checks.  Search percentiles are
    // taken within each job and reported as the median over jobs: stalls of
    // the shared host last up to seconds and would otherwise decide a run's
    // tail on their own.
    SpanLog spans;
    std::size_t searches = 0;
    std::uint64_t total_distinct = 0, total_calls = 0;
    std::vector<double> search_p50, search_p99, job_ms, job_search_ms;
    std::vector<SearchRecord> quality;  // every search of the quality jobs
    std::vector<std::vector<nt::Curve>> first_jobs;  // and their curves
    std::unordered_map<std::uint64_t, SearchRecord> bests;
    std::size_t job = 0;
    const auto window_start = Clock::now();
    const auto deadline = window_start + std::chrono::duration<double>(opt.seconds);
    for (;; ++job) {
        if (Clock::now() >= deadline && job >= w.quality_jobs) break;
        const std::vector<Task> tasks = w.tasks(job);
        if (job < w.quality_jobs) first_jobs.emplace_back();
        job_search_ms.clear();
        const auto job_start = Clock::now();
        for (const Task& t : tasks) {
            const Slot& slot = slots[t.slot];
            const Meter before = setup->meter;
            const auto t0 = Clock::now();
            nt::RunResult r = opt.trace ? slot.metered->run(t.seed) : slot.plain->run(t.seed);
            const auto t1 = Clock::now();
            ++searches;
            job_search_ms.push_back(seconds_between(t0, t1) * 1e3);
            total_distinct += r.distinct_evals;
            total_calls += r.total_eval_calls;
            Digest key;
            key.add(static_cast<std::uint64_t>(t.slot));
            key.add(r.best_genome.key());
            key.add(r.best_eval.feasible ? r.best_eval.value : -0.0);
            if (const auto it = bests.find(key.value()); it != bests.end())
                ++it->second.count;
            else
                bests.emplace(key.value(), SearchRecord{job, t.slot, r});
            if (job < w.quality_jobs) {
                quality.emplace_back(job, t.slot, r);
                first_jobs.back().push_back(std::move(r.curve));
            }
            if (opt.trace) {
                const Meter& m = setup->meter;
                spans.add({"search", searches, job + 1, spans.at(t0), spans.at(t1),
                           m.wave_s - before.wave_s, m.waves - before.waves,
                           m.model_s - before.model_s, m.model_calls - before.model_calls});
            }
        }
        const auto job_end = Clock::now();
        job_ms.push_back(seconds_between(job_start, job_end) * 1e3);
        search_p50.push_back(quantile(job_search_ms, 0.50));
        search_p99.push_back(quantile(job_search_ms, 0.99));
        if (opt.trace)
            spans.add({"job", job + 1, 0, spans.at(job_start), spans.at(job_end), 0, 0, 0, 0});
    }
    const double window_s = seconds_between(window_start, Clock::now());
    const double peak_rss = peak_rss_mb();

    // --- Checks ----------------------------------------------------------
    // Every best re-evaluates bit-exactly through its generator and no best
    // beats the optimum of the enumerated space.
    const std::vector<double> optima = w.optima(*setup);
    std::vector<nt::EvalFn> reeval;
    for (const Slot& s : slots) reeval.push_back(s.generator->metric_eval(s.metric));
    out.attempted = searches;
    for (const auto& [key, s] : bests) {
        const Slot& slot = slots[s.slot];
        if (!s.best_eval.feasible) {
            out.fail(format("%s: %zu searches found no feasible design", slot.label.c_str(),
                            s.count),
                     s.count);
            continue;
        }
        const nt::Evaluation again = reeval[s.slot](s.best_genome);
        if (!again.feasible || !same_bits(again.value, s.best_eval.value)) {
            out.fail(format("%s: best %.17g of %zu searches re-evaluates to %.17g",
                            slot.label.c_str(), s.best_eval.value, s.count, again.value),
                     s.count);
            continue;
        }
        if (better(slot.direction, s.best_eval.value, optima[s.slot]))
            out.fail(format("%s: best %.17g of %zu searches beats the space optimum %.17g",
                            slot.label.c_str(), s.best_eval.value, s.count, optima[s.slot]),
                     s.count);
    }
    if (opt.trace) {
        // Metering must not change what a search finds.
        for (std::size_t i = 0; i < reference.size(); ++i) {
            const SearchRecord& a = reference[i];
            const SearchRecord& b = quality[i];
            if (!(a.best_genome == b.best_genome) || a.distinct != b.distinct ||
                a.calls != b.calls || !same_bits(a.best_eval.value, b.best_eval.value))
                out.fail(format("search %zu differs between plain and metered engines", i));
        }
    }
    Values layers;
    if (w.extra_checks) w.extra_checks(*setup, first_jobs, out, layers);

    // --- Digest over the quality jobs -----------------------------------
    Digest digest;
    for (const SearchRecord& s : quality) {
        digest.add(s.best_eval.value);
        digest.add(static_cast<std::uint64_t>(s.distinct));
    }
    out.digest = digest.value();

    // --- evals_to_1pct: mean-curve crossing of the strong slots ----------
    // One MultiRunCurve per strong slot over the quality jobs, averaged
    // over slots.  A mean curve that never comes within 1% charges the
    // largest distinct-eval count any of its runs spent, so a quality loss
    // shows as a larger number instead of a missing one.
    std::vector<double> crossings;
    for (std::size_t si = 0; si < slots.size(); ++si) {
        if (!slots[si].strong) continue;
        nt::MultiRunCurve multi{slots[si].direction};
        // first_jobs[j][i] is the curve of the i-th search of job j.
        for (std::size_t j = 0; j < first_jobs.size(); ++j) {
            const std::vector<Task> tasks = w.tasks(j);
            for (std::size_t i = 0; i < tasks.size(); ++i)
                if (tasks[i].slot == si && !first_jobs[j][i].empty())
                    multi.add_run(first_jobs[j][i]);
        }
        if (multi.runs() == 0) {
            out.fail(format("%s: no feasible run for evals_to_1pct", slots[si].label.c_str()));
            continue;
        }
        const double threshold = within_one_percent(slots[si].direction, optima[si]);
        const std::optional<double> x = multi.mean_curve_crossing(threshold);
        double spent = 0.0;
        for (std::size_t r = 0; r < multi.runs(); ++r)
            spent = std::max(spent, multi.run(r).final_evals());
        crossings.push_back(x ? *x : spent);
        out.note(format("evals_to_1pct %-28s %8.1f%s", slots[si].label.c_str(),
                        x ? *x : spent, x ? "" : "  (mean curve never within 1%)"));
    }
    double evals_to_1pct = 0.0;
    for (const double c : crossings) evals_to_1pct += c;
    if (!crossings.empty()) evals_to_1pct /= static_cast<double>(crossings.size());

    // --- Trace bytes: job 0 re-run traced ----------------------------------
    const auto sink = std::make_shared<CountingSink>();
    for (const Task& t : w.tasks(0)) {
        const Slot& s = slots[t.slot];
        nt::GaConfig cfg = s.config;
        cfg.obs = nt::obs::Instrumentation::with_sink(sink);
        const nt::GaEngine traced{s.generator->space(), cfg, s.direction, s.eval, s.hints};
        (void)traced.run(t.seed);
    }
    const std::uint64_t trace_bytes = sink->bytes();
    const std::uint64_t trace_events = sink->events();

    // --- Metrics ---------------------------------------------------------
    out.note(format("%s: %zu searches in %zu jobs over %.3f s (closed loop, 1 eval worker)",
                    w.name, searches, job, window_s));
    out.note(format("search percentiles: within each job of %zu searches, median over %zu jobs",
                    w.tasks(0).size(), job));

    if (!opt.trace) {
        Values& e = out.end_to_end;
        e["searches_per_s"] = static_cast<double>(searches) / window_s;
        e["search_p50_ms"] = median(search_p50);
        e["search_p99_ms"] = median(search_p99);
        e["evals_to_1pct"] = evals_to_1pct;
        e["job_latency_p50_ms"] = quantile(job_ms, 0.50);
        e["job_latency_p90_ms"] = quantile(job_ms, 0.90);
        e["trace_bytes_per_job"] = static_cast<double>(trace_bytes);
        e["setup_s"] = median(setup_times);
        e["peak_rss_mb"] = peak_rss;
        return out;
    }

    // --- Per-layer (traced) ----------------------------------------------
    Values micro = measure_micro(opt);
    double search_s = 0.0, wave_s = 0.0, model_s = 0.0;
    std::uint64_t model_calls = 0, waves = 0;
    for (const Span& s : spans.spans()) {
        if (std::strcmp(s.name, "search") != 0) continue;
        search_s += s.end_s - s.start_s;
        wave_s += s.wave_s;
        waves += s.waves;
        model_s += s.model_s;
        model_calls += s.model_calls;
    }
    const double n = static_cast<double>(searches);
    layers["model.share"] = model_s / search_s;
    layers["core.pool.wave_share"] = (wave_s - model_s) / search_s;
    layers["core.engine.self_share"] = (search_s - wave_s) / search_s;
    layers["model.calls_per_search"] = static_cast<double>(model_calls) / n;
    layers["core.memo.hit_ratio"] =
        1.0 - static_cast<double>(total_distinct) / static_cast<double>(total_calls);
    layers["core.checkpoint.writes_per_job"] = 0.0;  // bypassed
    layers["core.store.hit_ratio"] = 0.0;             // bypassed
    layers["obs.trace.events_per_job"] = static_cast<double>(trace_events);
    layers["obs.trace.bytes_per_event"] =
        trace_events == 0 ? 0.0 : static_cast<double>(trace_bytes) / trace_events;

    // Traced vs plain on identical work (job 0).
    double metered_job0_s = 0.0;
    for (const Span& s : spans.spans())
        if (std::strcmp(s.name, "job") == 0 && s.id == 1) metered_job0_s = s.end_s - s.start_s;
    layers["bench.trace_overhead_share"] = metered_job0_s / reference_job_s - 1.0;

    // Isolated per-op costs x this run's call counts, against the plain
    // per-search wall time of job 0.
    std::uint64_t ref_distinct = 0, ref_calls = 0;
    for (const SearchRecord& s : reference) {
        ref_distinct += s.distinct;
        ref_calls += s.calls;
    }
    const double ref_n = static_cast<double>(reference.size());
    const double per_search_model_calls = static_cast<double>(ref_distinct) / ref_n;
    const double per_search_hits = static_cast<double>(ref_calls - ref_distinct) / ref_n;
    const double waves_per_search = static_cast<double>(waves) / n;
    double breed_children = 0.0, rebuilds = 0.0;
    for (const Task& t : w.tasks(0)) {
        const nt::GaConfig& c = slots[t.slot].config;
        const double gens = static_cast<double>(c.generations);
        breed_children += (gens - 1.0) * static_cast<double>(c.population_size - c.elitism);
        rebuilds += gens - 1.0;
    }
    breed_children /= ref_n;
    rebuilds /= ref_n;
    const double pool_dispatch_ns =
        std::max(0.0, micro["core.pool.wave_us.w1"] * 1e3 -
                          10.0 * micro["core.memo.hit_ns"]);  // wave of 10 memo hits
    const double predicted_ns =
        per_search_model_calls * (micro[w.model_cost_metric] + micro["core.memo.miss_overhead_ns"] +
                                  micro["core.guard.overhead_ns"]) +
        per_search_hits * micro["core.memo.hit_ns"] + waves_per_search * pool_dispatch_ns +
        breed_children * micro["core.breed.child_ns"] + rebuilds * micro["core.select.rebuild_ns"] +
        micro["core.engine.run_setup_us"] * 1e3;
    const double actual_ns = reference_job_s / ref_n * 1e9;
    layers["unattributed_share"] = 1.0 - predicted_ns / actual_ns;
    out.note(format("attribution: isolated costs x call counts = %.1f us of a %.1f us search "
                    "(unattributed %.1f%%)",
                    predicted_ns * 1e-3, actual_ns * 1e-3,
                    100.0 * (1.0 - predicted_ns / actual_ns)));

    for (const auto& [k, v] : layers) micro[k] = v;
    out.per_layer = std::move(micro);

    std::filesystem::create_directories(opt.out_dir);
    const std::string span_path = opt.out_dir + "/" + w.name + ".spans.csv";
    spans.write(span_path);
    out.note("spans written to " + span_path);
    return out;
}

}  // namespace

// The paper-scale query: 40 baseline and 40 strongly guided runs of the
// population-10, 80-generation GA maximizing router frequency, evaluated
// on the live model.  One job is one such query.
RunOutput run_query_router_model(const Options& opt)
{
    constexpr std::size_t kRunsPerLevel = 40;
    Workload w;
    w.name = "query_router_model";
    w.setup_reps = 15;
    w.quality_jobs = 6;
    w.setup = [] {
        auto s = std::make_unique<Setup>();
        s->generators.push_back(std::make_unique<nt::noc::RouterGenerator>());
        const nt::ip::IpGenerator& gen = *s->generators.back();
        const nt::HintSet author = gen.author_hints(Metric::freq_mhz);
        for (const bool strong : {false, true}) {
            Slot slot;
            slot.label = strong ? "router freq_mhz strong" : "router freq_mhz baseline";
            slot.generator = &gen;
            slot.metric = Metric::freq_mhz;
            slot.direction = Direction::maximize;
            slot.strong = strong;
            slot.config.generations = 80;
            slot.hints = strong ? nt::apply_guidance(author, Direction::maximize,
                                                     nt::GuidanceLevel::strong)
                                : nt::HintSet::none(gen.space());
            slot.eval = gen.metric_eval(Metric::freq_mhz);
            s->slots.push_back(std::move(slot));
        }
        return s;
    };
    // Baseline and strong alternate over consecutive seeds.
    w.tasks = [seed = opt.seed](std::size_t job) {
        nt::Rng seeder{mix_seed(seed, job)};
        std::vector<Task> tasks;
        for (std::size_t i = 0; i < 2 * kRunsPerLevel; ++i)
            tasks.push_back({i % 2, seeder.next_u64()});
        return tasks;
    };
    w.optima = [](const Setup& s) {
        const nt::ip::Dataset ds = nt::ip::Dataset::enumerate(*s.generators.front());
        return std::vector<double>(s.slots.size(), ds.best(Metric::freq_mhz, Direction::maximize));
    };
    w.model_cost_metric = "model.router.eval_ns";
    return run_standalone(opt, w);
}

namespace {

struct FigureQuery {
    const char* tag;
    std::size_t generator;  // 0 = router, 1 = FFT
    Metric metric;
    Direction direction;
    std::size_t generations;
    const char* title;
};

// Figs. 4-7 of the paper; Fig. 5 plots the first 20 generations.
constexpr FigureQuery kFigures[] = {
    {"fig4", 0, Metric::freq_mhz, Direction::maximize, 80, "NoC: Maximize Frequency"},
    {"fig5", 0, Metric::area_delay_product, Direction::minimize, 20,
     "NoC: Minimize Area-Delay Product"},
    {"fig6", 1, Metric::area_luts, Direction::minimize, 80, "FFT: Minimize # LUTs"},
    {"fig7", 1, Metric::throughput_per_lut, Direction::maximize, 80,
     "FFT: Maximize Throughput/LUT"},
};
constexpr std::size_t kFigureCount = std::size(kFigures);
// The order exp::Experiment::add_standard_engines uses.
constexpr nt::GuidanceLevel kLevels[] = {nt::GuidanceLevel::none, nt::GuidanceLevel::weak,
                                         nt::GuidanceLevel::strong};
constexpr std::size_t kLevelCount = std::size(kLevels);
constexpr std::size_t kFigureRuns = 40;

nt::exp::Query figure_query(const FigureQuery& f)
{
    return nt::exp::Query::simple(f.title, f.metric, f.direction);
}

}  // namespace

// Figs. 4-7: each figure query with baseline, weak and strong guidance over
// 40 runs, evaluated against enumerated datasets.  One job reproduces all
// four figures.  The timed searches are the ones exp::Experiment runs for
// the same query and seed, which the check after the window proves by
// running the Experiments and comparing every curve.
RunOutput run_figures_dataset(const Options& opt)
{
    constexpr std::size_t kRunsPerFigure = kLevelCount * kFigureRuns;
    Workload w;
    w.name = "figures_dataset";
    w.setup_reps = 7;
    w.quality_jobs = 4;
    w.setup = [] {
        auto s = std::make_unique<Setup>();
        s->generators.push_back(std::make_unique<nt::noc::RouterGenerator>());
        s->generators.push_back(std::make_unique<nt::fft::FftGenerator>(
            nt::synth::FpgaTech::virtex6_lx760t(), /*measure_snr=*/false));
        for (const auto& gen : s->generators)
            s->datasets.push_back(nt::ip::Dataset::enumerate(*gen));
        for (const FigureQuery& f : kFigures) {
            const nt::ip::IpGenerator& gen = *s->generators[f.generator];
            const nt::exp::Query query = figure_query(f);
            const nt::HintSet base = nt::exp::query_hints(gen, query);
            const nt::EvalFn eval = s->datasets[f.generator].lookup_eval(
                f.metric, nt::exp::query_eval(gen, query));
            for (const nt::GuidanceLevel level : kLevels) {
                Slot slot;
                slot.label = std::string{f.tag} + " " + nt::guidance_name(level);
                slot.generator = &gen;
                slot.metric = f.metric;
                slot.direction = f.direction;
                slot.strong = level == nt::GuidanceLevel::strong;
                slot.config.generations = f.generations;
                slot.hints = base;
                slot.hints.set_confidence(nt::guidance_confidence(level, base.confidence()));
                slot.eval = eval;
                s->slots.push_back(std::move(slot));
            }
        }
        return s;
    };
    // GaEngine::run_many draws the run seeds from the configured seed; the
    // same sequence is used for every guidance level.
    w.tasks = [seed = opt.seed](std::size_t job) {
        std::vector<Task> tasks;
        for (std::size_t q = 0; q < kFigureCount; ++q) {
            nt::Rng seeder{mix_seed(seed, job * kFigureCount + q)};
            std::vector<std::uint64_t> seeds;
            for (std::size_t r = 0; r < kFigureRuns; ++r) seeds.push_back(seeder.next_u64());
            for (std::size_t e = 0; e < kLevelCount; ++e)
                for (const std::uint64_t s : seeds) tasks.push_back({q * kLevelCount + e, s});
        }
        return tasks;
    };
    w.optima = [](const Setup& s) {
        std::vector<double> optima;
        for (const FigureQuery& f : kFigures)
            for (std::size_t e = 0; e < kLevelCount; ++e)
                optima.push_back(s.datasets[f.generator].best(f.metric, f.direction));
        return optima;
    };
    w.extra_checks = [seed = opt.seed](const Setup& s,
                                       const std::vector<std::vector<nt::Curve>>& first_jobs,
                                       RunOutput& out, Values& layers) {
        for (std::size_t q = 0; q < kFigureCount; ++q) {
            const FigureQuery& f = kFigures[q];
            const nt::ip::IpGenerator& gen = *s.generators[f.generator];
            double seconds = 0.0;
            for (std::size_t j = 0; j < first_jobs.size(); ++j) {
                nt::exp::ExperimentConfig cfg;
                cfg.runs = kFigureRuns;
                cfg.ga.generations = f.generations;
                cfg.ga.seed = mix_seed(seed, j * kFigureCount + q);
                nt::exp::Experiment experiment{gen, figure_query(f), cfg};
                experiment.use_dataset(s.datasets[f.generator]);
                experiment.add_standard_engines();
                const auto t0 = Clock::now();
                const nt::exp::ExperimentResult result = experiment.run();
                seconds += seconds_between(t0, Clock::now());

                // The timed curves of figure q in job j, per guidance level;
                // empty curves are skipped, as run_many does.
                const nt::Curve* timed = first_jobs[j].data() + q * kRunsPerFigure;
                bool same = result.engines.size() == kLevelCount;
                for (std::size_t e = 0; same && e < kLevelCount; ++e) {
                    const nt::MultiRunCurve& multi = result.engines[e].curve;
                    std::size_t r = 0;
                    for (std::size_t i = e * kFigureRuns; same && i < (e + 1) * kFigureRuns; ++i) {
                        if (timed[i].empty()) continue;
                        if (r >= multi.runs()) {
                            same = false;
                            break;
                        }
                        const auto& a = multi.run(r++).points();
                        const auto& b = timed[i].points();
                        same = a.size() == b.size();
                        for (std::size_t k = 0; same && k < a.size(); ++k)
                            same = same_bits(a[k].evals, b[k].evals) &&
                                   same_bits(a[k].best, b[k].best);
                    }
                    same = same && r == multi.runs();
                }
                if (!same)
                    out.fail(format("%s job %zu: exp::Experiment curves differ from the timed "
                                    "searches", f.tag, j));
            }
            layers[std::string{"exp.query_s."} + f.tag] = seconds / first_jobs.size();
        }
    };
    w.model_cost_metric = "ip.dataset.lookup_ns";
    return run_standalone(opt, w);
}

}  // namespace perfbench
