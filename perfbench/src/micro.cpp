// The micro pass: isolated per-op cost of each layer, timed around calls
// into the layer's public functions on small seeded inputs.  Every traced
// run makes it, whatever the workload, so a layer's isolated cost is known
// next to the run's call counts.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/batch_evaluator.hpp"
#include "core/breed.hpp"
#include "core/checkpoint.hpp"
#include "core/eval_store.hpp"
#include "core/evaluator.hpp"
#include "core/fault.hpp"
#include "core/ga.hpp"
#include "core/nautilus.hpp"
#include "core/nsga2.hpp"
#include "core/rng.hpp"
#include "exp/experiment.hpp"
#include "fft/fft_generator.hpp"
#include "ip/dataset.hpp"
#include "noc/network_generator.hpp"
#include "noc/router_generator.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace nt = nautilus;
using nt::Direction;
using nt::ip::Metric;

namespace {

// Median over `reps` repetitions of the seconds one call of `f` takes.
template <typename F>
double median_seconds(int reps, F&& f)
{
    std::vector<double> times;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        f();
        times.push_back(seconds_between(t0, Clock::now()));
    }
    return median(times);
}

std::vector<nt::Genome> random_genomes(const nt::ParameterSpace& space, std::size_t n,
                                       std::uint64_t seed)
{
    nt::Rng rng{seed};
    std::vector<nt::Genome> out;
    for (std::size_t i = 0; i < n; ++i) out.push_back(nt::Genome::random(space, rng));
    return out;
}

// ns per call of `eval` over `genomes`.
double eval_ns(const nt::EvalFn& eval, const std::vector<nt::Genome>& genomes, int reps)
{
    double sink = 0.0;
    const double s = median_seconds(reps, [&] {
        for (const nt::Genome& g : genomes) sink += eval(g).value;
    });
    volatile double keep = sink;
    (void)keep;
    return s * 1e9 / static_cast<double>(genomes.size());
}

nt::Evaluation cheap_eval(const nt::Genome& g)
{
    return {true, static_cast<double>(g.genes().front())};
}

}  // namespace

Values measure_micro(const Options& opt)
{
    Values v;
    const std::uint64_t seed = opt.seed ^ 0x6d6963726full;
    const nt::noc::RouterGenerator router;
    const nt::fft::FftGenerator fft{nt::synth::FpgaTech::virtex6_lx760t(), /*measure_snr=*/false};
    const nt::noc::NetworkGenerator network;
    const std::vector<nt::Genome> router_points = random_genomes(router.space(), 2000, seed);
    const nt::HintSet hints = nt::apply_guidance(router.author_hints(Metric::freq_mhz),
                                                 Direction::maximize, nt::GuidanceLevel::strong);

    // --- Models ------------------------------------------------------------
    v["model.router.eval_ns"] = eval_ns(router.metric_eval(Metric::freq_mhz), router_points, 5);
    v["model.fft.eval_ns"] =
        eval_ns(fft.metric_eval(Metric::area_luts), random_genomes(fft.space(), 500, seed), 5);
    v["model.network.eval_ns"] = eval_ns(network.metric_eval(Metric::bisection_gbps),
                                         random_genomes(network.space(), 200, seed), 5);

    // --- Datasets ----------------------------------------------------------
    auto t0 = Clock::now();
    const nt::ip::Dataset router_ds = nt::ip::Dataset::enumerate(router);
    const nt::ip::Dataset fft_ds = nt::ip::Dataset::enumerate(fft);
    v["ip.dataset.enumerate_s"] = seconds_between(t0, Clock::now());
    v["ip.dataset.lookup_ns"] =
        eval_ns(router_ds.lookup_eval(Metric::freq_mhz), router_points, 9);

    // --- Memo cache and fault guard -----------------------------------------
    {
        const double bare_ns = eval_ns(cheap_eval, router_points, 9);
        std::vector<double> miss_ns, hit_ns;
        for (int rep = 0; rep < 9; ++rep) {
            nt::CachingEvaluator memo{cheap_eval};
            t0 = Clock::now();
            for (const nt::Genome& g : router_points) (void)memo.evaluate(g);
            miss_ns.push_back(seconds_between(t0, Clock::now()) * 1e9 / router_points.size());
            t0 = Clock::now();
            for (const nt::Genome& g : router_points) (void)memo.evaluate(g);
            hit_ns.push_back(seconds_between(t0, Clock::now()) * 1e9 / router_points.size());
        }
        v["core.memo.miss_overhead_ns"] = std::max(0.0, median(miss_ns) - bare_ns);
        v["core.memo.hit_ns"] = median(hit_ns);

        std::vector<double> guard_ns;
        for (int rep = 0; rep < 9; ++rep) {
            nt::FaultTolerantEvaluator<nt::Evaluation> guard{cheap_eval, nt::FaultPolicy{},
                                                             nt::Evaluation{false, 0.0}};
            t0 = Clock::now();
            for (const nt::Genome& g : router_points) (void)guard.evaluate(g);
            guard_ns.push_back(seconds_between(t0, Clock::now()) * 1e9 / router_points.size());
        }
        v["core.guard.overhead_ns"] = std::max(0.0, median(guard_ns) - bare_ns);
    }

    // --- Eval pool: one population-10 wave of memo hits ---------------------
    {
        const std::vector<nt::Genome> wave(router_points.begin(), router_points.begin() + 10);
        std::vector<nt::Evaluation> out(wave.size());
        for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
            nt::CachingEvaluator memo{cheap_eval};
            nt::BatchEvaluator pool{workers};
            pool.evaluate(memo, std::span<const nt::Genome>{wave}, std::span<nt::Evaluation>{out});
            const double s = median_seconds(15, [&] {
                for (int i = 0; i < 200; ++i)
                    pool.evaluate(memo, std::span<const nt::Genome>{wave},
                                  std::span<nt::Evaluation>{out});
            });
            v[workers == 1 ? "core.pool.wave_us.w1" : "core.pool.wave_us.w4"] = s / 200 * 1e6;
        }

        // The paper-scale router query at 4 eval workers vs 1.
        double seconds[2] = {0.0, 0.0};
        for (int k = 0; k < 2; ++k) {
            nt::GaConfig cfg;
            cfg.eval_workers = k == 0 ? 1 : 4;
            const nt::GaEngine engine{router.space(), cfg, Direction::maximize,
                                      router.metric_eval(Metric::freq_mhz), hints};
            seconds[k] = median_seconds(3, [&] {
                for (std::uint64_t s = 0; s < 4; ++s) (void)engine.run(seed + s);
            });
        }
        v["core.pool.w4_query_slowdown"] = seconds[1] / seconds[0];
    }

    // --- Breed and select ----------------------------------------------------
    {
        nt::BreedConfig cfg;
        cfg.selection = nt::SelectionConfig{nt::SelectionKind::roulette, 1.8, 2};
        std::vector<nt::Genome> population(router_points.begin(), router_points.begin() + 10);
        std::vector<double> fitness;
        nt::Rng rng{seed};
        for (std::size_t i = 0; i < population.size(); ++i) fitness.push_back(rng.uniform() * 100);
        nt::BreedContext ctx{router.space(), hints, 0.1};
        constexpr std::size_t kGenerations = 80;
        const double s = median_seconds(15, [&] {
            for (std::size_t g = 0; g < kGenerations; ++g) {
                ctx.begin_generation(g);
                (void)ctx.breed(population, fitness, cfg, rng, false);
            }
        });
        v["core.breed.child_ns"] =
            s * 1e9 / static_cast<double>(kGenerations * (cfg.population_size - cfg.elitism));

        // What a run costs before and after its generations: engine,
        // memo, guard and pool construction plus the result, from a
        // one-generation run on a trivial model minus its ten misses.
        nt::GaConfig one;
        one.generations = 1;
        const nt::GaEngine engine{router.space(), one, Direction::maximize, cheap_eval, hints};
        std::uint64_t run_seed = seed;
        const double r1 = median_seconds(15, [&] {
            for (int i = 0; i < 100; ++i) (void)engine.run(run_seed++);
        });
        const double miss_ns = v["core.memo.miss_overhead_ns"] + v["core.guard.overhead_ns"];
        v["core.engine.run_setup_us"] = std::max(0.0, r1 * 1e6 / 100 - 10 * miss_ns * 1e-3);

        nt::SelectionTable table;
        const double r = median_seconds(15, [&] {
            for (int i = 0; i < 1000; ++i) table.rebuild(fitness, cfg.selection);
        });
        v["core.select.rebuild_ns"] = r * 1e9 / 1000;
    }

    // --- NSGA-II: a combined parent + offspring population of 48 -------------
    {
        nt::Rng rng{seed};
        std::vector<nt::ObjectivePoint> points;
        for (std::size_t i = 0; i < 48; ++i)
            points.push_back({i, {rng.uniform(200, 900), rng.uniform(500, 20000)}});
        const std::vector<Direction> dirs{Direction::maximize, Direction::minimize};
        std::vector<std::vector<std::size_t>> fronts;
        v["core.nsga2.sort_us"] =
            median_seconds(15, [&] {
                for (int i = 0; i < 100; ++i) fronts = nt::non_dominated_sort(points, dirs);
            }) * 1e6 / 100;
        v["core.nsga2.crowding_us"] =
            median_seconds(15, [&] {
                for (int i = 0; i < 100; ++i)
                    for (const auto& front : fronts)
                        (void)nt::crowding_distance(points, front, dirs);
            }) * 1e6 / 100;
    }

    const std::string dir = opt.out_dir + "/micro-" + std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    // --- Checkpoint: the state of a router GA job at generation 40 -----------
    {
        nt::GaConfig cfg;
        cfg.checkpoint_path = dir + "/ga.ckpt";
        cfg.halt_at_generation = 40;
        const nt::GaEngine engine{router.space(), cfg, Direction::maximize,
                                  router.metric_eval(Metric::freq_mhz),
                                  nt::HintSet::none(router.space())};
        (void)engine.run(seed);
        const nt::GaCheckpoint cp = nt::load_ga_checkpoint(cfg.checkpoint_path);
        const std::string path = dir + "/again.ckpt";
        v["core.checkpoint.save_ms"] =
            median_seconds(15, [&] { nt::save_checkpoint(path, cp); }) * 1e3;
        v["core.checkpoint.bytes"] = static_cast<double>(std::filesystem::file_size(path));
    }

    // --- Persistent store: write-behind batches of 63 inserts + one flush ----
    {
        nt::EvalStoreConfig cfg;
        cfg.path = dir + "/store";
        nt::EvalStore store{cfg};
        const std::uint64_t ns = nt::EvalStore::namespace_key("router/freq_mhz");
        std::vector<double> insert_ns, flush_ms;
        constexpr std::size_t kBatch = 63;  // one below the default flush_every
        for (std::size_t b = 0; b + kBatch <= router_points.size(); b += kBatch) {
            t0 = Clock::now();
            for (std::size_t i = b; i < b + kBatch; ++i)
                store.insert(ns, router_points[i],
                             nt::StoredResult{true, {static_cast<double>(i)}});
            insert_ns.push_back(seconds_between(t0, Clock::now()) * 1e9 / kBatch);
            t0 = Clock::now();
            store.flush();
            flush_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
        }
        v["core.store.insert_ns"] = median(insert_ns);
        v["core.store.flush_ms"] = median(flush_ms);
        std::size_t hits = 0;
        v["core.store.lookup_hit_ns"] =
            median_seconds(9, [&] {
                for (const nt::Genome& g : router_points) hits += store.lookup(ns, g).has_value();
            }) * 1e9 / router_points.size();
        if (hits == 0) throw std::runtime_error("micro pass: store lookups found nothing");
    }

    // --- Trace emission: a generation event to a JSONL file ------------------
    {
        const nt::obs::Tracer tracer{std::make_shared<nt::obs::JsonlFileSink>(dir + "/t.jsonl")};
        constexpr int kEvents = 2000;
        v["obs.trace.emit_ns"] =
            median_seconds(5, [&] {
                for (int i = 0; i < kEvents; ++i) {
                    nt::obs::TraceEvent ev{"generation"};
                    ev.add("gen", std::size_t(i))
                        .add("best", nt::obs::FieldValue{812.5 + i})
                        .add("mean", nt::obs::FieldValue{640.25})
                        .add("worst", nt::obs::FieldValue{401.0})
                        .add("feasible", std::size_t{10})
                        .add("best_so_far", nt::obs::FieldValue{812.5 + i})
                        .add("distinct_total", std::size_t(i * 7))
                        .add("diversity", nt::obs::FieldValue{0.4375});
                    tracer.emit(std::move(ev));
                }
            }) * 1e9 / kEvents;
        tracer.sink()->flush();

        // A whole GA router job traced to a JSONL file vs bare.
        double seconds[2] = {0.0, 0.0};
        for (int k = 0; k < 2; ++k) {
            int rep = 0;
            seconds[k] = median_seconds(5, [&] {
                nt::GaConfig cfg;
                if (k == 1)
                    cfg.obs = nt::obs::Instrumentation::with_sink(
                        std::make_shared<nt::obs::JsonlFileSink>(dir + "/job-" +
                                                                 std::to_string(rep++) + ".jsonl"));
                const nt::GaEngine engine{router.space(), cfg, Direction::maximize,
                                          router.metric_eval(Metric::freq_mhz), hints};
                (void)engine.run(seed);
            });
        }
        v["obs.trace.job_slowdown"] = seconds[1] / seconds[0];
    }

    // --- Experiment layer: each figure query at reduced scale ----------------
    // Two runs per guidance level on the live model; figures_dataset replaces
    // these with the full-scale dataset queries.
    {
        struct Fig {
            const char* tag;
            const nt::ip::IpGenerator* gen;
            Metric metric;
            Direction dir;
            std::size_t gens;
        };
        const Fig figs[] = {{"fig4", &router, Metric::freq_mhz, Direction::maximize, 80},
                            {"fig5", &router, Metric::area_delay_product, Direction::minimize, 20},
                            {"fig6", &fft, Metric::area_luts, Direction::minimize, 80},
                            {"fig7", &fft, Metric::throughput_per_lut, Direction::maximize, 80}};
        for (const Fig& f : figs) {
            nt::exp::ExperimentConfig cfg;
            cfg.runs = 2;
            cfg.ga.generations = f.gens;
            cfg.ga.seed = seed;
            nt::exp::Experiment e{*f.gen, nt::exp::Query::simple(f.tag, f.metric, f.dir), cfg};
            e.add_standard_engines();
            t0 = Clock::now();
            (void)e.run();
            v[std::string{"exp.query_s."} + f.tag] = seconds_between(t0, Clock::now());
        }
    }

    // --- HTTP, specs and scheduler: a small job session ----------------------
    for (const auto& [k, value] : measure_serve_micro(opt, dir)) v[k] = value;

    std::filesystem::remove_all(dir);
    return v;
}

}  // namespace perfbench
