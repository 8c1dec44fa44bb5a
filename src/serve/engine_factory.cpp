#include "serve/engine_factory.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>

#include "core/fault_injection.hpp"
#include "core/ga.hpp"
#include "core/local_search.hpp"
#include "core/nautilus.hpp"
#include "core/nsga2.hpp"
#include "core/random_search.hpp"
#include "fft/fft_generator.hpp"
#include "ip/metrics.hpp"
#include "noc/network_generator.hpp"
#include "noc/router_generator.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace nautilus::serve {

namespace {

using ip::Metric;

Direction direction_of(const JobSpec& spec)
{
    return spec.direction == "min" ? Direction::minimize : Direction::maximize;
}

obs::Instrumentation instrumentation_for(const JobRunInputs& inputs)
{
    obs::Instrumentation inst;
    if (!inputs.trace_path.empty())
        inst.tracer = obs::Tracer{std::make_shared<obs::JsonlFileSink>(inputs.trace_path)};
    inst.progress = inputs.progress;
    inst.lineage = inputs.lineage;
    inst.metrics = inputs.metrics;
    // Server jobs tag run_start with their identity so one grep on a
    // request id joins the trace against the access and server logs.
    // Each tag's value is constructed in place rather than moved from a
    // temporary variant.
    const auto tag = [&inst](const char* key, std::uint64_t value) {
        inst.run_tags.emplace_back(std::piecewise_construct, std::forward_as_tuple(key),
                                   std::forward_as_tuple(std::in_place_type<std::uint64_t>, value));
    };
    if (inputs.job_id != 0) {
        tag("job_id", inputs.job_id);
        if (inputs.request_id != 0) tag("request_id", inputs.request_id);
    }
    return inst;
}

bool checkpoint_exists(const std::string& path)
{
    return !path.empty() && std::ifstream{path}.good();
}

// The store namespace is derived from ip + metric(s), so server jobs and
// standalone runs of the same query share records.
std::uint64_t store_namespace(const JobSpec& spec)
{
    std::string context = spec.ip + "/" + spec.metric;
    if (spec.engine == "nsga2") context += "+" + spec.metric2;
    return EvalStore::namespace_key(context);
}

// One job's resolved pieces, shared by the per-engine runners.
struct Job {
    const ip::IpGenerator& generator;
    const JobSpec& spec;
    const JobRunInputs& inputs;
    RunConfig run;  // the fields every engine config takes from the job alike
    Metric metric;
    Direction direction;
    EvalFn eval;  // the scalar objective, chaos-wrapped when requested

    // GaConfig or MultiObjectiveConfig: the shared fields, the spec's budget
    // and population, and the checkpoint wiring.
    template <typename Config>
    Config generational() const
    {
        Config c;
        static_cast<RunConfig&>(c) = run;
        c.generations = spec.generations;
        if (spec.population != 0) c.population_size = spec.population;
        c.checkpoint_path = inputs.checkpoint_path;
        c.halt_at_generation = inputs.halt_at_generation;
        return c;
    }

    // RandomSearchConfig, AnnealingConfig or HillClimbConfig.
    template <typename Config>
    Config budgeted() const
    {
        Config c;
        static_cast<RunConfig&>(c) = run;
        c.max_distinct_evals = spec.evals;
        return c;
    }

    HintSet hints() const
    {
        if (spec.guidance == "weak" || spec.guidance == "strong") {
            const GuidanceLevel level =
                spec.guidance == "weak" ? GuidanceLevel::weak : GuidanceLevel::strong;
            return apply_guidance(generator.author_hints(metric), direction, level);
        }
        return HintSet::none(generator.space());
    }
};

JobOutcome run_ga(const Job& job)
{
    const auto ga = job.generational<GaConfig>();
    const GaEngine engine{job.generator.space(), ga, job.direction, job.eval, job.hints()};
    const RunResult r = checkpoint_exists(ga.checkpoint_path)
                            ? engine.resume(ga.checkpoint_path)
                            : engine.run();

    JobOutcome out;
    static_cast<EvalTotals&>(out) = r;
    out.feasible = r.best_eval.feasible;
    if (out.feasible) {
        out.best = r.best_eval.value;
        out.best_genome = r.best_genome.to_string(job.generator.space());
    }
    return out;
}

JobOutcome run_nsga2(const Job& job)
{
    const Metric first = job.metric;
    const Metric second = metric_or_throw(job.generator, job.spec.metric2);
    const std::vector<Direction> dirs{job.direction, ip::metric_default_direction(second)};

    const ip::IpGenerator& generator = job.generator;
    const MultiEvalFn eval = [&generator, first,
                              second](const Genome& g) -> std::optional<std::vector<double>> {
        const auto mv = generator.evaluate(g);
        if (!mv.feasible) return std::nullopt;
        const auto a = mv.try_get(first);
        const auto b = mv.try_get(second);
        if (!a || !b) return std::nullopt;
        return std::vector<double>{*a, *b};
    };

    const auto mo = job.generational<MultiObjectiveConfig>();
    const Nsga2Engine engine{generator.space(), mo, dirs, eval, job.hints()};
    const MultiObjectiveResult r = checkpoint_exists(mo.checkpoint_path)
                                       ? engine.resume(mo.checkpoint_path)
                                       : engine.run();

    JobOutcome out;
    static_cast<EvalTotals&>(out) = r;
    out.feasible = !r.front.empty();
    out.front.reserve(r.front.size());
    for (const FrontPoint& p : r.front)
        out.front.push_back({p.genome.to_string(generator.space()), p.values});
    return out;
}

JobOutcome run_budgeted(const Job& job)
{
    const JobSpec& spec = job.spec;
    const ParameterSpace& space = job.generator.space();
    JobOutcome out;
    Curve curve{job.direction};
    if (spec.engine == "random") {
        const auto rs = job.budgeted<RandomSearchConfig>();
        curve = RandomSearch{space, rs, job.direction, job.eval}.run(spec.seed, &out);
    }
    else if (spec.engine == "sa") {
        const auto sa = job.budgeted<AnnealingConfig>();
        curve = SimulatedAnnealing{space, sa, job.direction, job.eval, job.hints()}.run(
            spec.seed, &out);
    }
    else {
        const auto hc = job.budgeted<HillClimbConfig>();
        curve = HillClimber{space, hc, job.direction, job.eval, job.hints()}.run(spec.seed,
                                                                                 &out);
    }
    out.feasible = !curve.empty();
    if (out.feasible) out.best = curve.final_best();
    return out;
}

}  // namespace

std::unique_ptr<ip::IpGenerator> make_generator(const std::string& ip)
{
    if (ip == "router") return std::make_unique<noc::RouterGenerator>();
    if (ip == "fft")
        return std::make_unique<fft::FftGenerator>(synth::FpgaTech::virtex6_lx760t(),
                                                   /*measure_snr=*/false);
    if (ip == "network") return std::make_unique<noc::NetworkGenerator>();
    throw std::invalid_argument("unknown ip '" + ip + "' (expected router, fft, network)");
}

ip::Metric metric_or_throw(const ip::IpGenerator& generator, const std::string& name)
{
    const auto m = ip::metric_from_name(name);
    if (!m) throw std::invalid_argument("unknown metric '" + name + "'");
    const auto provided = generator.metrics();
    for (const Metric p : provided)
        if (p == *m) return *m;
    std::string names;
    for (const Metric p : provided) {
        if (!names.empty()) names += ", ";
        names += ip::metric_name(p);
    }
    throw std::invalid_argument("ip '" + generator.name() + "' does not provide metric '" +
                                name + "' (available: " + names + ")");
}

JobOutcome run_job(const JobSpec& spec, const JobRunInputs& inputs)
{
    const std::unique_ptr<ip::IpGenerator> generator = make_generator(spec.ip);
    const Metric metric = metric_or_throw(*generator, spec.metric);
    EvalFn eval = generator->metric_eval(metric);
    std::unique_ptr<FaultInjectingEvaluator> chaos;
    if (inputs.chaos) {
        if (spec.engine == "nsga2")
            throw std::invalid_argument(
                "chaos injection wraps a scalar evaluation function; engine 'nsga2' "
                "evaluates two objectives");
        chaos = std::make_unique<FaultInjectingEvaluator>(std::move(eval), *inputs.chaos);
        eval = chaos->as_eval_fn();
    }
    RunConfig run;
    run.seed = spec.seed;
    run.eval_workers = inputs.workers != 0 ? inputs.workers : spec.workers;
    run.obs = instrumentation_for(inputs);
    run.fault = inputs.fault;
    if (inputs.store) {
        run.store = inputs.store;
        run.store_namespace = store_namespace(spec);
    }
    run.cancel = inputs.cancel;
    const Job job{*generator, spec, inputs, std::move(run), metric, direction_of(spec),
                  std::move(eval)};
    const obs::Instrumentation& inst = job.run.obs;

    const auto started = std::chrono::steady_clock::now();
    JobOutcome out = spec.engine == "ga"      ? run_ga(job)
                     : spec.engine == "nsga2" ? run_nsga2(job)
                                              : run_budgeted(job);
    if (chaos) {
        out.injected_failures = chaos->injected_failures();
        out.injected_hangs = chaos->injected_hangs();
        out.injected_flaky = chaos->injected_flaky();
    }
    const double run_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();

    // Server jobs close their trace with a resource-accounting summary.
    // The eval counters mirror the run's own `run_end` exactly (checked by
    // `trace_inspect --check`); queue wait comes from the scheduler.  Pure
    // observation: zero RNG, so determinism gates are untouched.
    if (inputs.job_id != 0 && inst.tracer.enabled()) {
        obs::TraceEvent ev{"job_summary"};
        ev.add("job_id", obs::FieldValue{inputs.job_id});
        if (inputs.request_id != 0)
            ev.add("request_id", obs::FieldValue{inputs.request_id});
        ev.add("engine", obs::FieldValue{spec.engine})
            .add("workers", job.run.eval_workers)
            .add("queue_wait_seconds", obs::FieldValue{inputs.queue_wait_seconds})
            .add("run_seconds", obs::FieldValue{run_seconds})
            .add("halted", obs::FieldValue{out.halted})
            .add("distinct_evals", out.distinct_evals)
            .add("fresh_evals", out.distinct_evals - std::min(out.store_hits,
                                                              out.distinct_evals))
            .add("store_hits", out.store_hits)
            .add("retries", std::size_t{out.fault.retries});
        inst.tracer.emit(std::move(ev));
    }
    // A trace that could not be written fails the job (runtime_error).
    if (inst.tracer.enabled()) inst.tracer.sink()->flush();
    return out;
}

}  // namespace nautilus::serve
