// nautilus_cli: command-line front end to the search engines.
//
//   nautilus_cli --ip fft --metric area_luts --direction min
//                --guidance strong --runs 20 --generations 80
//
// Options:
//   --ip {router,fft,network}   IP generator to explore (default router)
//   --metric NAME               metric to optimize (default per IP)
//   --direction {min,max}       optimization direction (default per metric)
//   --guidance {none,weak,strong,estimated}
//                               hint provenance: author hints at the given
//                               confidence, or non-expert estimation from
//                               samples (default none = baseline GA)
//   --runs N                    runs to average (default 10)
//   --generations N             GA generations (default 80)
//   --population N              population (default: the engine's own, 10
//                               for the GA and 24 for --pareto)
//   --seed N                    experiment seed (default 2015)
//   --workers N                 threads for population evaluation (default 1;
//                               results are identical for any worker count)
//   --samples N                 estimation samples for --guidance estimated
//   --sensitivity               print the dataset sensitivity report instead
//                               of searching (enumerates the space)
//   --save-dataset PATH         characterize the space and write CSV
//   --dataset PATH              serve evaluations from a saved CSV dataset
//   --pareto METRIC2            map the METRIC x METRIC2 Pareto front with
//                               the multi-objective engine (a job, below)
//   --trace PATH                write a structured JSONL trace of the run
//                               (inspect with trace_inspect; includes birth
//                               and lineage_summary events, see lineage_report)
//   --lineage                   track search lineage live (hint-class
//                               attribution) and print an efficacy summary at
//                               the end; also feeds the /lineage endpoint
//   --metrics                   print the metrics registry dump at the end
//   --serve PORT                serve live observability over HTTP while the
//                               search runs: /metrics (Prometheus text),
//                               /status (JSON progress), /healthz.  PORT 0
//                               picks an ephemeral port (printed at startup)
//   --serve-grace S             keep the HTTP endpoint alive S seconds after
//                               the run finishes (scrape-after-completion)
//   --progress [S]              print a one-line progress heartbeat to
//                               stderr every S seconds (default 5)
//   --store PATH                cross-run persistent evaluation store: serve
//                               repeat evaluations from PATH and record fresh
//                               ones (results are bit-for-bit identical with
//                               or without the store; see DESIGN.md)
//   --store-max-bytes N         evict oldest store records past N bytes
//                               (default 0 = unlimited)
//
// One search as a job (DESIGN.md §12): --job, --pareto or any flag below
// runs one search through serve::run_job, as the job server does.  Without
// --job the flags build the spec (nsga2 with --pareto, else ga), checked by
// the same validator as a spec file:
//   --checkpoint PATH           checkpoint every generation to PATH; resume
//                               from PATH when it exists (bit-for-bit, at
//                               any --workers count)
//   --resume PATH               the same, but PATH must exist
//   --die-at-gen N              write a checkpoint at generation N and stop
//                               (deterministic stand-in for a killed run)
//   --retries N                 evaluation attempts per design point
//   --retry-backoff MS          base backoff before retry 2 (exponential)
//   --eval-timeout S            per-attempt watchdog timeout in seconds
//   --chaos-fail R              inject failures with probability R (chaos
//                               mode; implies quarantine-on-exhaustion;
//                               scalar engines only, not --pareto)
//   --chaos-hang R              inject hangs (sleep) with probability R
//   --chaos-flaky R             perturb values with probability R
//   --chaos-seed N              fault-injection seed (default 0xc4a05)
//   --job SPEC.json             run one job spec file standalone (the
//                               reference side of the server determinism gate)
//
// Job server (search-as-a-service; see DESIGN.md §12):
//   --serve-jobs PORT           run the multi-tenant job server: POST /jobs
//                               submits specs, GET /jobs/<id> streams
//                               progress, DELETE /jobs/<id> cancels with a
//                               resumable checkpoint.  PORT 0 = ephemeral
//   --jobs-capacity N           total evaluation-worker slots shared by all
//                               jobs (default 4)
//   --jobs-dir PATH             directory for per-job traces and checkpoints
//                               (default .)
//   --serve-duration S          serve for S seconds then exit (default 0 =
//                               serve until killed)
//   --log PATH                  append the structured server log (JSONL) to
//                               PATH: per-request access records plus job
//                               lifecycle records, all carrying the request
//                               id echoed in X-Nautilus-Request-Id.  The
//                               in-memory tail is always served at /logs?n=K
//   --log-level L               minimum level kept: debug|info|warn|error
//                               (default info)

#include <cctype>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "core/eval_store.hpp"
#include "core/hint_estimator.hpp"
#include "core/nautilus.hpp"
#include "exp/experiment.hpp"
#include "ip/analysis.hpp"
#include "obs/format.hpp"
#include "obs/http_server.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "serve/engine_factory.hpp"
#include "serve/scheduler.hpp"

#include "flags.hpp"

using namespace nautilus;
using ip::Metric;

namespace {

struct CliOptions {
    std::string ip = "router";
    std::string metric;
    std::string direction;
    std::string guidance = "none";
    std::size_t runs = 10;
    std::size_t generations = 80;
    std::optional<std::size_t> population;  // unset = the engine's default
    std::uint64_t seed = 2015;
    std::size_t workers = 1;
    std::size_t samples = 80;
    bool sensitivity = false;
    std::string save_dataset;
    std::string dataset;
    std::string pareto_metric;
    std::string trace_path;
    bool lineage = false;
    bool metrics = false;
    int serve_port = -1;            // >= 0 enables the HTTP endpoint
    double serve_grace = 0.0;       // seconds to keep serving after the run
    double progress_interval = 0.0; // > 0 enables the stderr heartbeat
    std::string store;              // persistent evaluation store directory
    std::uint64_t store_max_bytes = 0;  // 0 = unlimited

    // Job plane: one standalone spec run, or the multi-tenant server.
    std::string job_spec;            // --job SPEC.json
    int serve_jobs_port = -1;        // >= 0 enables the job server
    std::size_t jobs_capacity = 4;   // shared eval-worker slots
    std::string jobs_dir = ".";      // per-job traces + checkpoints
    double serve_duration = 0.0;     // 0 = serve until killed
    std::string log_path;            // structured server log file (JSONL)
    std::string log_level = "info";  // debug|info|warn|error

    // Fault-tolerance / checkpoint flags; any of them makes the flags a job.
    bool single_run = false;
    std::string checkpoint;
    std::string resume;
    std::size_t die_at_gen = 0;
    std::size_t retries = 1;
    double retry_backoff_ms = 0.0;
    double eval_timeout = 0.0;
    double chaos_fail = 0.0;
    double chaos_hang = 0.0;
    double chaos_flaky = 0.0;
    std::uint64_t chaos_seed = 0xc4a05;

    bool chaotic() const
    {
        return chaos_fail != 0.0 || chaos_hang != 0.0 || chaos_flaky != 0.0;
    }
};

[[noreturn]] void usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--ip router|fft|network] [--metric NAME]\n"
                 "          [--direction min|max] [--guidance none|weak|strong|estimated]\n"
                 "          [--runs N] [--generations N] [--population N] [--seed N]\n"
                 "          [--workers N] [--samples N] [--sensitivity] [--save-dataset PATH]\n"
                 "          [--dataset PATH] [--pareto METRIC2] [--trace PATH] [--lineage]\n"
                 "          [--metrics]\n"
                 "          [--serve PORT] [--serve-grace S] [--progress [S]]\n"
                 "          [--store PATH] [--store-max-bytes N]\n"
                 "          [--job SPEC.json] [--serve-jobs PORT] [--jobs-capacity N]\n"
                 "          [--jobs-dir PATH] [--serve-duration S]\n"
                 "          [--log PATH] [--log-level debug|info|warn|error]\n"
                 "          [--checkpoint PATH] [--resume PATH]\n"
                 "          [--die-at-gen N] [--retries N] [--retry-backoff MS]\n"
                 "          [--eval-timeout S] [--chaos-fail R] [--chaos-hang R]\n"
                 "          [--chaos-flaky R] [--chaos-seed N]\n",
                 argv0);
    std::exit(2);
}

CliOptions parse(int argc, char** argv)
{
    CliOptions opt;
    const nautilus::tools::FlagParser flags{argv[0], usage};
    auto need_value = [&](int& i) -> const char* {
        if (i + 1 >= argc) usage(argv[0]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto u64 = [&](int& j) { return flags.u64(arg, need_value(j)); };
        const auto count = [&](int& j) { return static_cast<std::size_t>(u64(j)); };
        const auto number = [&](int& j) { return flags.number(arg, need_value(j)); };
        const auto port = [&](int& j) {
            const std::uint64_t p = u64(j);
            if (p > 65535) {
                std::fprintf(stderr, "%s port out of range (0..65535)\n", arg.c_str());
                usage(argv[0]);
            }
            return static_cast<int>(p);
        };
        if (arg == "--ip") opt.ip = need_value(i);
        else if (arg == "--metric") opt.metric = need_value(i);
        else if (arg == "--direction") opt.direction = need_value(i);
        else if (arg == "--guidance") opt.guidance = need_value(i);
        else if (arg == "--runs") opt.runs = count(i);
        else if (arg == "--generations") opt.generations = count(i);
        else if (arg == "--population") opt.population = count(i);
        else if (arg == "--seed") opt.seed = u64(i);
        else if (arg == "--workers") opt.workers = count(i);
        else if (arg == "--samples") opt.samples = count(i);
        else if (arg == "--sensitivity") opt.sensitivity = true;
        else if (arg == "--save-dataset") opt.save_dataset = need_value(i);
        else if (arg == "--dataset") opt.dataset = need_value(i);
        else if (arg == "--pareto") opt.pareto_metric = need_value(i);
        else if (arg == "--trace") opt.trace_path = need_value(i);
        else if (arg == "--lineage") opt.lineage = true;
        else if (arg == "--metrics") opt.metrics = true;
        else if (arg == "--serve") opt.serve_port = port(i);
        else if (arg == "--serve-grace") opt.serve_grace = number(i);
        else if (arg == "--progress") {
            // Optional numeric value: `--progress 2` or bare `--progress`.
            opt.progress_interval = 5.0;
            if (i + 1 < argc && std::isdigit(static_cast<unsigned char>(argv[i + 1][0])))
                opt.progress_interval = flags.number(arg, argv[++i]);
        }
        else if (arg == "--store") opt.store = need_value(i);
        else if (arg == "--store-max-bytes") opt.store_max_bytes = u64(i);
        else if (arg == "--job") opt.job_spec = need_value(i);
        else if (arg == "--serve-jobs") opt.serve_jobs_port = port(i);
        else if (arg == "--jobs-capacity") opt.jobs_capacity = count(i);
        else if (arg == "--jobs-dir") opt.jobs_dir = need_value(i);
        else if (arg == "--serve-duration") opt.serve_duration = number(i);
        else if (arg == "--log") opt.log_path = need_value(i);
        else if (arg == "--log-level") opt.log_level = need_value(i);
        else if (arg == "--checkpoint") opt.checkpoint = need_value(i);
        else if (arg == "--resume") opt.resume = need_value(i);
        else if (arg == "--die-at-gen") opt.die_at_gen = count(i);
        else if (arg == "--retries") opt.retries = count(i);
        else if (arg == "--retry-backoff") opt.retry_backoff_ms = number(i);
        else if (arg == "--eval-timeout") opt.eval_timeout = number(i);
        else if (arg == "--chaos-fail") opt.chaos_fail = number(i);
        else if (arg == "--chaos-hang") opt.chaos_hang = number(i);
        else if (arg == "--chaos-flaky") opt.chaos_flaky = number(i);
        else if (arg == "--chaos-seed") opt.chaos_seed = u64(i);
        else if (arg == "--help" || arg == "-h") usage(argv[0]);
        else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage(argv[0]);
        }
        if (arg == "--checkpoint" || arg == "--resume" || arg == "--die-at-gen" ||
            arg == "--retries" || arg == "--retry-backoff" || arg == "--eval-timeout" ||
            arg.rfind("--chaos-", 0) == 0)
            opt.single_run = true;
    }
    if (opt.workers == 0) {
        std::fprintf(stderr, "--workers must be at least 1\n");
        usage(argv[0]);
    }
    return opt;
}

// The --store directory (null without the flag), reporting into `metrics`.
// Throws when the store cannot be opened.
std::shared_ptr<EvalStore> open_store(const CliOptions& opt,
                                      const std::shared_ptr<obs::MetricsRegistry>& metrics)
{
    if (opt.store.empty()) return nullptr;
    EvalStoreConfig sc;
    sc.path = opt.store;
    sc.max_bytes = opt.store_max_bytes;
    auto store = std::make_shared<EvalStore>(sc);
    if (metrics) store->attach_metrics(metrics);
    std::printf("evaluation store: %s (%zu records)\n", opt.store.c_str(), store->records());
    return store;
}

// The flags as a spec document.  Only flags the user set become fields, so
// parse_job_spec -- the one spec validator -- resolves every default the
// way it does for a spec file.
std::string spec_json_from_flags(const CliOptions& opt)
{
    std::string json = "{\"engine\":\"";
    json += opt.pareto_metric.empty() ? "ga" : "nsga2";
    json += "\"";
    const auto text = [&](const char* key, const std::string& value) {
        if (value.empty()) return;
        json += ",\"";
        json += key;
        json += "\":";
        obs::append_json_string(json, value);
    };
    const auto number = [&](const char* key, std::uint64_t value) {
        json += std::string{",\""} + key + "\":" + std::to_string(value);
    };
    text("ip", opt.ip);
    text("metric", opt.metric);
    text("metric2", opt.pareto_metric);
    text("direction", opt.direction);
    text("guidance", opt.guidance);
    number("generations", opt.generations);
    if (opt.population) number("population", *opt.population);
    number("seed", opt.seed);
    number("workers", opt.workers);
    return json + "}";
}

void print_outcome(const serve::JobSpec& spec, const serve::JobRunInputs& inputs,
                   const serve::JobOutcome& r)
{
    if (r.start_generation != 0)
        std::printf("resumed from %s at generation %zu\n", inputs.checkpoint_path.c_str(),
                    r.start_generation);
    if (r.halted)
        std::printf("halted at a checkpoint boundary (%s; rerun to resume)\n",
                    inputs.checkpoint_path.c_str());
    if (!r.feasible) std::printf("no feasible design found\n");
    else if (spec.engine == "nsga2") {
        std::printf("front: %zu points\n", r.front.size());
        for (const serve::FrontEntry& p : r.front) {
            std::string line = "  [";
            for (std::size_t k = 0; k < p.values.size(); ++k) {
                if (k > 0) line += ", ";
                obs::append_double(line, p.values[k]);
            }
            std::printf("%s]  %s\n", line.c_str(), p.genome.c_str());
        }
    }
    else {
        std::string best;
        obs::append_double(best, r.best);
        std::printf("best: %s\n", best.c_str());
        if (!r.best_genome.empty()) std::printf("genome: %s\n", r.best_genome.c_str());
    }
    std::printf("evals: %zu distinct, %zu calls; attempts %llu (retries %llu, failures %llu, "
                "timeouts %llu, quarantined %llu)\n",
                r.distinct_evals, r.total_eval_calls,
                static_cast<unsigned long long>(r.fault.attempts),
                static_cast<unsigned long long>(r.fault.retries),
                static_cast<unsigned long long>(r.fault.failures),
                static_cast<unsigned long long>(r.fault.timeouts),
                static_cast<unsigned long long>(r.fault.quarantined));
    if (inputs.chaos)
        std::printf("chaos injected: %llu failures, %llu hangs, %llu flaky\n",
                    static_cast<unsigned long long>(r.injected_failures),
                    static_cast<unsigned long long>(r.injected_hangs),
                    static_cast<unsigned long long>(r.injected_flaky));
}

// One search as a job: `--job SPEC.json`, or the spec the flags build.
// Both run through serve::run_job, the entry point the scheduler uses, so a
// flag run, a spec file and a server job of the same search build the same
// engine.  `inputs` arrives carrying the live plane and the store.
int run_job_mode(const CliOptions& opt, serve::JobRunInputs inputs)
{
    std::string json;
    if (!opt.job_spec.empty()) {
        std::ifstream in{opt.job_spec};
        if (!in) {
            std::fprintf(stderr, "cannot read %s\n", opt.job_spec.c_str());
            return 2;
        }
        json.assign(std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{});
    }
    else {
        json = spec_json_from_flags(opt);
    }
    serve::JobSpec spec;
    try {
        spec = serve::parse_job_spec(json);
    }
    catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "invalid job spec: %s\n", e.what());
        return 2;
    }
    if (!opt.dataset.empty()) {
        std::fprintf(stderr, "--dataset applies to the multi-run "
                             "experiment, not to a job\n");
        return 2;
    }
    if (!opt.checkpoint.empty() && !opt.resume.empty() && opt.checkpoint != opt.resume) {
        std::fprintf(stderr, "--checkpoint and --resume name different files\n");
        return 2;
    }
    if (!opt.resume.empty() && !std::ifstream{opt.resume}) {
        std::fprintf(stderr, "cannot resume: no checkpoint at %s\n", opt.resume.c_str());
        return 1;
    }

    inputs.trace_path = opt.trace_path;
    inputs.checkpoint_path = opt.checkpoint.empty() ? opt.resume : opt.checkpoint;
    inputs.halt_at_generation = opt.die_at_gen;
    inputs.fault.retry.max_attempts = std::max<std::size_t>(opt.retries, 1);
    inputs.fault.retry.backoff_ms = opt.retry_backoff_ms;
    inputs.fault.retry.timeout_seconds = opt.eval_timeout;
    inputs.fault.tolerate_failures = opt.chaotic() || opt.retries > 1;
    if (opt.chaotic()) {
        FaultInjectionConfig fic;
        fic.fail_rate = opt.chaos_fail;
        fic.hang_rate = opt.chaos_hang;
        fic.flaky_value_rate = opt.chaos_flaky;
        fic.seed = opt.chaos_seed;
        inputs.chaos = fic;
    }

    std::printf("job: %s\n", serve::canonical_spec_json(spec).c_str());
    if (!opt.trace_path.empty()) std::printf("tracing to %s\n", opt.trace_path.c_str());
    try {
        print_outcome(spec, inputs, serve::run_job(spec, inputs));
    }
    catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    return 0;
}

// `--serve-jobs PORT`: the multi-tenant job server.  One scheduler over a
// shared worker-slot pool and (optionally) one shared evaluation store;
// the observability HTTP server is the submission plane.
int serve_jobs_mode(const CliOptions& opt)
{
    const auto metrics = std::make_shared<obs::MetricsRegistry>();
    const auto progress = std::make_shared<obs::ProgressTracker>();

    // The structured log is always live (the in-memory ring backs /logs);
    // --log additionally appends every record to a JSONL file.
    const auto level = obs::log_level_from_name(opt.log_level);
    if (!level) {
        std::fprintf(stderr, "unknown log level '%s' (expected debug|info|warn|error)\n",
                     opt.log_level.c_str());
        return 2;
    }
    std::shared_ptr<obs::Logger> logger;
    try {
        obs::LogConfig lc;
        lc.level = *level;
        lc.path = opt.log_path;
        logger = std::make_shared<obs::Logger>(lc);
    }
    catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }

    std::shared_ptr<EvalStore> store;
    try {
        store = open_store(opt, metrics);
    }
    catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }

    serve::SchedulerConfig sc;
    sc.worker_capacity = opt.jobs_capacity;
    sc.jobs_dir = opt.jobs_dir;
    sc.store = store;
    sc.metrics = metrics;
    sc.log = logger;
    auto scheduler = std::make_shared<serve::JobScheduler>(sc);

    obs::HttpServerConfig http;
    http.port = static_cast<std::uint16_t>(opt.serve_jobs_port);
    auto server = std::make_unique<obs::ObsHttpServer>(http, metrics, progress);
    server->attach_logger(logger);
    server->attach_jobs(scheduler);
    try {
        server->start();
    }
    catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    std::printf("serving jobs on http://127.0.0.1:%u/jobs (capacity %zu, dir %s)\n",
                static_cast<unsigned>(server->port()), scheduler->capacity(),
                opt.jobs_dir.c_str());
    if (!opt.log_path.empty())
        std::printf("logging to %s (level %s)\n", opt.log_path.c_str(),
                    opt.log_level.c_str());
    std::fflush(stdout);

    if (opt.serve_duration > 0.0)
        std::this_thread::sleep_for(std::chrono::duration<double>(opt.serve_duration));
    else
        while (true) std::this_thread::sleep_for(std::chrono::hours(1));

    server->stop();
    server.reset();     // drops the server's scheduler reference
    scheduler.reset();  // cancels + joins running jobs (checkpoints written)
    if (store) store->flush();
    std::printf("job server stopped\n");
    return 0;
}

}  // namespace

int main(int argc, char** argv)
{
    const CliOptions opt = parse(argc, argv);

    // --job wins over everything; the job server over the rest.  Dataset
    // characterization keeps precedence over the flags that build a job.
    if (opt.job_spec.empty() && opt.serve_jobs_port >= 0) return serve_jobs_mode(opt);
    const bool characterize = !opt.save_dataset.empty() || opt.sensitivity;
    const bool one_job = !opt.job_spec.empty() ||
                         (!characterize && (!opt.pareto_metric.empty() || opt.single_run));

    // The multi-run modes resolve the query here; a job resolves its own
    // through parse_job_spec and run_job, which apply the same checks.
    std::unique_ptr<ip::IpGenerator> generator;
    Metric metric{};
    Direction direction{};
    if (!one_job) {
        try {
            generator = serve::make_generator(opt.ip);
            metric = serve::metric_or_throw(
                *generator,
                opt.metric.empty() ? serve::default_metric_name(opt.ip) : opt.metric);
        }
        catch (const std::invalid_argument& e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 2;
        }
        direction = ip::metric_default_direction(metric);
        if (opt.direction == "min") direction = Direction::minimize;
        else if (opt.direction == "max") direction = Direction::maximize;
        else if (!opt.direction.empty()) usage(argv[0]);
        std::printf("IP: %s (%zu parameters, %.0f configurations)\n",
                    generator->name().c_str(), generator->space().size(),
                    generator->space().cardinality());
    }

    // Observability shared by every mode: live lineage, the metrics
    // registry, and the progress tracker behind /status and the stderr
    // heartbeat.  --serve creates the registry on demand so /metrics is
    // never empty-handed.  All default off.
    std::shared_ptr<obs::LineageTracker> lineage;
    std::shared_ptr<obs::MetricsRegistry> metrics;
    std::shared_ptr<obs::ProgressTracker> progress;
    if (opt.lineage) lineage = std::make_shared<obs::LineageTracker>();
    if (opt.metrics || opt.serve_port >= 0) metrics = std::make_shared<obs::MetricsRegistry>();
    if (opt.serve_port >= 0 || opt.progress_interval > 0.0)
        progress = std::make_shared<obs::ProgressTracker>();
    const auto dump_metrics = [&] {
        if (!opt.metrics) return;
        std::cout << "-- metrics --\n";
        metrics->write_text(std::cout);
    };
    const auto dump_lineage = [&] {
        if (lineage) std::fputs(obs::to_text(lineage->counters()).c_str(), stdout);
    };

    std::unique_ptr<obs::ObsHttpServer> server;
    std::unique_ptr<obs::ProgressHeartbeat> heartbeat;
    if (opt.serve_port >= 0) {
        obs::HttpServerConfig http;
        http.port = static_cast<std::uint16_t>(opt.serve_port);
        server = std::make_unique<obs::ObsHttpServer>(http, metrics, progress, lineage);
        try {
            server->start();
        }
        catch (const std::exception& e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
        std::printf("serving http://127.0.0.1:%u/  (/metrics /status /healthz)\n",
                    static_cast<unsigned>(server->port()));
        std::fflush(stdout);
    }
    if (opt.progress_interval > 0.0)
        heartbeat = std::make_unique<obs::ProgressHeartbeat>(progress, opt.progress_interval);

    // Cross-run persistent evaluation store: repeat evaluations are served
    // from disk, fresh ones recorded for the next invocation.  Every engine
    // namespaces it by IP + metric(s), so queries never collide.
    std::shared_ptr<EvalStore> store;
    try {
        store = open_store(opt, metrics);
    }
    catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    const auto dump_store = [&] {
        if (!store) return;
        store->flush();
        const EvalStoreCounters c = store->counters();
        const std::uint64_t probes = c.hits + c.misses;
        std::printf("store: %zu records; %llu hits / %llu misses (%.1f%% hit rate), "
                    "%llu writes, %llu compactions, %llu evictions\n",
                    store->records(), static_cast<unsigned long long>(c.hits),
                    static_cast<unsigned long long>(c.misses),
                    probes == 0 ? 0.0 : 100.0 * static_cast<double>(c.hits) / probes,
                    static_cast<unsigned long long>(c.writes),
                    static_cast<unsigned long long>(c.compactions),
                    static_cast<unsigned long long>(c.evictions));
    };

    // Wind down the live plane: stop the heartbeat, honor --serve-grace so a
    // scraper can still read the final /metrics + /status, then stop serving.
    const auto finish = [&](int code) {
        heartbeat.reset();
        if (server != nullptr) {
            if (opt.serve_grace > 0.0) {
                std::printf("serving for %.1f more seconds (--serve-grace)\n",
                            opt.serve_grace);
                std::fflush(stdout);
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(opt.serve_grace));
            }
            server->stop();
        }
        return code;
    };

    if (one_job) {
        serve::JobRunInputs inputs;
        inputs.store = store;
        inputs.progress = progress;
        inputs.lineage = lineage;
        inputs.metrics = metrics;
        const int code = run_job_mode(opt, std::move(inputs));
        if (code == 0) {
            dump_lineage();
            dump_store();
            dump_metrics();
        }
        return finish(code);
    }

    if (characterize) {
        std::printf("characterizing the full design space...\n");
        const ip::Dataset ds = ip::Dataset::enumerate(*generator);
        std::printf("%zu points, %zu feasible\n", ds.size(), ds.feasible_count());
        if (!opt.save_dataset.empty()) {
            std::ofstream out{opt.save_dataset};
            if (!out) {
                std::fprintf(stderr, "cannot write %s\n", opt.save_dataset.c_str());
                return finish(1);
            }
            ds.save_csv(out, *generator);
            std::printf("dataset written to %s\n", opt.save_dataset.c_str());
        }
        if (opt.sensitivity) {
            const auto effects = ip::main_effects(ds, *generator, metric);
            ip::print_sensitivity_report(std::cout, *generator, metric, effects);
        }
        return finish(0);
    }

    // Tracing to a JSONL file.  A default-constructed Instrumentation
    // costs a predicted branch per site.
    obs::Instrumentation inst;
    inst.lineage = lineage;
    inst.metrics = metrics;
    inst.progress = progress;
    if (!opt.trace_path.empty()) {
        try {
            inst.tracer = obs::Tracer{std::make_shared<obs::JsonlFileSink>(opt.trace_path)};
        }
        catch (const std::exception& e) {
            std::fprintf(stderr, "%s\n", e.what());
            return finish(1);
        }
        std::printf("tracing to %s\n", opt.trace_path.c_str());
    }

    exp::ExperimentConfig cfg;
    cfg.runs = opt.runs;
    cfg.ga.generations = opt.generations;
    cfg.ga.population_size = opt.population.value_or(cfg.ga.population_size);
    cfg.ga.seed = opt.seed;
    cfg.ga.eval_workers = opt.workers;
    cfg.ga.obs = inst;
    if (store) {
        cfg.ga.store = store;
        cfg.ga.store_namespace =
            EvalStore::namespace_key(opt.ip + "/" + ip::metric_name(metric));
    }

    const exp::Query query = exp::Query::simple(
        std::string(direction_name(direction)) + " " + ip::metric_name(metric), metric,
        direction);

    exp::Experiment experiment{*generator, query, cfg};
    std::optional<ip::Dataset> cached;
    if (!opt.dataset.empty()) {
        std::ifstream in{opt.dataset};
        if (!in) {
            std::fprintf(stderr, "cannot read %s\n", opt.dataset.c_str());
            return finish(1);
        }
        cached = ip::Dataset::load_csv(in, *generator);
        std::printf("serving evaluations from %s (%zu points)\n", opt.dataset.c_str(),
                    cached->size());
        experiment.use_dataset(*cached);
    }
    experiment.add_engine({"baseline", GuidanceLevel::none, std::nullopt, std::nullopt});
    if (opt.guidance == "weak" || opt.guidance == "strong") {
        const GuidanceLevel level =
            opt.guidance == "weak" ? GuidanceLevel::weak : GuidanceLevel::strong;
        experiment.add_engine({"nautilus-" + opt.guidance, level, std::nullopt,
                               std::nullopt});
    }
    else if (opt.guidance == "estimated") {
        HintEstimatorConfig ec;
        ec.samples = opt.samples;
        ec.seed = opt.seed ^ 0xe57;
        ec.tracer = inst.tracer;
        HintSet estimated =
            HintEstimator{ec}.estimate(generator->space(), generator->metric_eval(metric));
        if (direction == Direction::minimize) estimated = estimated.negated_bias();
        experiment.add_engine({"nautilus-estimated", GuidanceLevel::strong,
                               std::move(estimated), std::nullopt});
    }
    else if (opt.guidance != "none") {
        usage(argv[0]);
    }

    const exp::ExperimentResult result = experiment.run();
    result.print(std::cout);
    dump_lineage();
    dump_store();
    dump_metrics();
    if (inst.tracer.enabled()) {
        try {
            inst.tracer.sink()->flush();
        }
        catch (const std::runtime_error& e) {
            std::fprintf(stderr, "%s\n", e.what());
            return finish(1);
        }
    }
    return finish(0);
}
