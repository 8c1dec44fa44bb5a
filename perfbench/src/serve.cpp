// serve_mixed: the job server as users run it.  A JobScheduler with 4
// worker slots behind the ObsHttpServer on loopback, a shared EvalStore,
// per-job traces and checkpoints -- the CLI's --serve-jobs wiring.  One
// generator thread POSTs jobs on an open-loop schedule; each job's latency
// runs from the moment it was due to be sent to its completion, taken from
// a JobScheduler::wait on the job.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/rng.hpp"
#include "core/run_stats.hpp"
#include "ip/dataset.hpp"
#include "obs/http_server.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/engine_factory.hpp"
#include "serve/job_spec.hpp"
#include "serve/scheduler.hpp"
#include "http_client.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace nt = nautilus;
using nt::Direction;
using nt::ip::Metric;

namespace {

constexpr std::size_t kCapacity = 4;  // worker slots: the host's 4 cores
// Open-loop arrival rate: about 40% of the 14-15 jobs/s at which this mix
// saturates the 4 slots on the reference host (README.md, "serve_mixed").
constexpr double kJobsPerSecond = 6.0;
constexpr double kDrainSeconds = 90.0;  // wait for stragglers after the last send

// One job server set-up: store, scheduler and HTTP front end, in a fresh
// directory that is removed again on destruction.
struct ServerStack {
    std::string dir;
    std::shared_ptr<nt::obs::MetricsRegistry> metrics;
    std::shared_ptr<nt::EvalStore> store;
    std::shared_ptr<nt::serve::JobScheduler> scheduler;
    std::unique_ptr<nt::obs::ObsHttpServer> server;

    explicit ServerStack(std::string root) : dir(std::move(root))
    {
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir + "/jobs");
        metrics = std::make_shared<nt::obs::MetricsRegistry>();
        nt::EvalStoreConfig sc;
        sc.path = dir + "/store";
        store = std::make_shared<nt::EvalStore>(sc);
        store->attach_metrics(metrics);
        const auto logger = std::make_shared<nt::obs::Logger>(nt::obs::LogConfig{});
        nt::serve::SchedulerConfig cfg;
        cfg.worker_capacity = kCapacity;
        cfg.jobs_dir = dir + "/jobs";
        cfg.store = store;
        cfg.metrics = metrics;
        cfg.log = logger;
        scheduler = std::make_shared<nt::serve::JobScheduler>(cfg);
        server = std::make_unique<nt::obs::ObsHttpServer>(
            nt::obs::HttpServerConfig{}, metrics, std::make_shared<nt::obs::ProgressTracker>());
        server->attach_logger(logger);
        server->attach_jobs(scheduler);
        server->start();
        if (http_request(server->port(), "GET", "/healthz").status != 200)
            throw std::runtime_error("job server did not answer /healthz");
    }

    ~ServerStack()
    {
        server->stop();
        server.reset();
        scheduler.reset();  // cancels and joins any job still running
        store.reset();
        std::error_code ignored;
        std::filesystem::remove_all(dir, ignored);
    }

    ServerStack(const ServerStack&) = delete;
    ServerStack& operator=(const ServerStack&) = delete;

    std::uint16_t port() const { return server->port(); }
};

// One entry of the job mix: a label and the spec up to its seed.
struct MixEntry {
    const char* kind;
    const char* spec;
    bool strong_router_ga;  // counts towards evals_to_1pct
};

constexpr MixEntry kGaRouterStrong{"ga router strong w1",
                                   R"({"engine":"ga","ip":"router","metric":"freq_mhz",)"
                                   R"("guidance":"strong","generations":80,"workers":1)",
                                   true};
constexpr MixEntry kNsga2Router{"nsga2 router w1",
                                R"({"engine":"nsga2","ip":"router","metric":"freq_mhz",)"
                                R"("metric2":"area_luts","generations":40,"workers":1)",
                                false};
constexpr MixEntry kGaFftWeak{"ga fft weak w1",
                              R"({"engine":"ga","ip":"fft","metric":"area_luts",)"
                              R"("guidance":"weak","generations":40,"workers":1)",
                              false};
constexpr MixEntry kGaRouterW4{"ga router w4",
                               R"({"engine":"ga","ip":"router","metric":"freq_mhz",)"
                               R"("generations":80,"workers":4)",
                               false};
constexpr MixEntry kRandomRouter{
    "random router", R"({"engine":"random","ip":"router","metric":"freq_mhz","evals":300)", false};
constexpr MixEntry kSaFft{
    "sa fft", R"({"engine":"sa","ip":"fft","metric":"area_luts","guidance":"strong","evals":300)",
    false};

// Entry `slot` (0-9) of ten-job block `block`: 4 GA router strong, 2 NSGA-II
// router, 2 GA FFT weak, 1 GA router at 4 workers, and 1 budgeted job that
// alternates between random search and simulated annealing.
const MixEntry& mix_entry(std::size_t slot, std::size_t block)
{
    static constexpr const MixEntry* kBlock[9] = {&kGaRouterStrong, &kGaRouterStrong,
                                                  &kGaRouterStrong, &kGaRouterStrong,
                                                  &kNsga2Router,    &kNsga2Router,
                                                  &kGaFftWeak,      &kGaFftWeak,
                                                  &kGaRouterW4};
    if (slot < 9) return *kBlock[slot];
    return block % 2 == 0 ? kRandomRouter : kSaFft;
}

struct JobRecord {
    std::string kind;  // label of the mix entry
    std::string spec;
    bool strong_router_ga = false;  // counts towards evals_to_1pct
    double due_s = 0.0;             // scheduled send, from the window start
    double sent_s = 0.0;
    double replied_s = 0.0;
    int post_status = 0;
    std::uint64_t id = 0;
    bool completed = false;
    double completed_s = 0.0;
};

// What a finished job reported through GET /jobs/<id> and its trace file.
struct JobReport {
    bool done = false;
    double queue_wait_s = 0.0;
    double run_s = 0.0;
    std::size_t fresh = 0;
    std::size_t store_hits = 0;
    std::size_t distinct = 0;
    std::size_t calls = 0;
    bool feasible = false;
    double best = 0.0;
    std::string genome;
    std::vector<std::pair<std::string, std::vector<double>>> front;
    // From the trace.
    std::uint64_t trace_bytes = 0;
    std::uint64_t events = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t waves = 0;
    double wave_s = 0.0;
    nt::Curve curve{Direction::maximize};  // GA best-so-far vs distinct evals
};

bool same_bits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

// `want_curve`: rebuild the best-so-far curve of a maximizing GA job from
// its generation events.
JobReport read_job(const ServerStack& stack, std::uint64_t id, bool want_curve)
{
    JobReport r;
    const HttpReply reply = http_request(stack.port(), "GET", "/jobs/" + std::to_string(id));
    if (reply.status != 200) return r;
    const Json status = parse_json(reply.body);
    const Json* state = status.get("state");
    r.done = state != nullptr && state->text == "done";
    if (const Json* acc = status.get("accounting")) {
        if (const Json* x = acc->get("queue_wait_seconds")) r.queue_wait_s = x->number();
        if (const Json* x = acc->get("run_seconds")) r.run_s = x->number();
        if (const Json* x = acc->get("fresh_evals"))
            r.fresh = static_cast<std::size_t>(x->number());
    }
    if (const Json* res = status.get("result")) {
        if (const Json* x = res->get("feasible")) r.feasible = x->boolean;
        if (const Json* x = res->get("best")) r.best = x->number();
        if (const Json* x = res->get("genome")) r.genome = x->text;
        if (const Json* x = res->get("distinct_evals"))
            r.distinct = static_cast<std::size_t>(x->number());
        if (const Json* x = res->get("total_calls"))
            r.calls = static_cast<std::size_t>(x->number());
        if (const Json* x = res->get("store_hits"))
            r.store_hits = static_cast<std::size_t>(x->number());
        if (const Json* front = res->get("front"))
            for (const Json& p : front->items) {
                std::vector<double> values;
                if (const Json* vs = p.get("values"))
                    for (const Json& v : vs->items) values.push_back(v.number());
                const Json* g = p.get("genome");
                r.front.emplace_back(g != nullptr ? g->text : "", std::move(values));
            }
    }

    const std::string path = stack.scheduler->trace_path_for(id);
    std::ifstream in{path};
    std::string line;
    while (std::getline(in, line)) {
        r.trace_bytes += line.size() + 1;
        ++r.events;
        const auto ev = nt::obs::parse_jsonl_line(line);
        if (!ev) continue;
        if (ev->type == "checkpoint") {
            ++r.checkpoints;
        }
        else if (ev->type == "eval_wave") {
            ++r.waves;
            r.wave_s += ev->number("seconds").value_or(0.0);
        }
        else if (want_curve && ev->type == "generation") {
            const auto best = ev->number("best_so_far");
            const auto evals = ev->number("distinct_total");
            if (best && evals && std::isfinite(*best) && ev->number("feasible").value_or(0) > 0)
                r.curve.append(*evals, *best);
        }
    }
    return r;
}

std::optional<nt::Genome> parse_genome(const nt::ParameterSpace& space, const std::string& text)
{
    std::vector<std::uint32_t> genes;
    std::size_t pos = 0;
    for (std::size_t i = 0; i < space.size(); ++i) {
        const std::size_t end = std::min(text.find(' ', pos), text.size());
        const std::string token = text.substr(pos, end - pos);
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos || token.substr(0, eq) != space[i].name) return std::nullopt;
        const auto index = space[i].domain.index_of(token.substr(eq + 1));
        if (!index) return std::nullopt;
        genes.push_back(static_cast<std::uint32_t>(*index));
        pos = end + 1;
    }
    if (pos < text.size()) return std::nullopt;
    return nt::Genome{std::move(genes)};
}

bool better(Direction dir, double a, double b)
{
    return dir == Direction::maximize ? a > b : a < b;
}

// Space optima of every (ip, metric) the mix queries, by enumeration.
struct Optima {
    std::unique_ptr<nt::ip::IpGenerator> router = nt::serve::make_generator("router");
    std::unique_ptr<nt::ip::IpGenerator> fft = nt::serve::make_generator("fft");
    double router_freq = 0.0, router_luts = 0.0, fft_luts = 0.0;

    Optima()
    {
        const nt::ip::Dataset r = nt::ip::Dataset::enumerate(*router);
        const nt::ip::Dataset f = nt::ip::Dataset::enumerate(*fft);
        router_freq = r.best(Metric::freq_mhz, Direction::maximize);
        router_luts = r.best(Metric::area_luts, Direction::minimize);
        fft_luts = f.best(Metric::area_luts, Direction::minimize);
    }
};

// Checks one finished job against the same spec run standalone and against
// the space optima.  Returns an empty string when the job is correct.
std::string check_job(const JobRecord& rec, const JobReport& rep, const Optima& opt)
{
    if (rec.post_status != 201) return "POST /jobs answered " + std::to_string(rec.post_status);
    if (!rec.completed) return "did not complete in time";
    if (!rep.done) return "did not finish in state done";
    const nt::serve::JobSpec spec = nt::serve::parse_job_spec(rec.spec);
    nt::serve::JobOutcome ref;
    try {
        ref = nt::serve::run_job(spec, {});
    }
    catch (const std::exception& e) {
        return std::string{"the same spec run standalone failed: "} + e.what();
    }
    if (ref.feasible != rep.feasible || ref.distinct_evals != rep.distinct ||
        ref.total_eval_calls != rep.calls || ref.best_genome != rep.genome ||
        (spec.engine != "nsga2" && ref.feasible && !same_bits(ref.best, rep.best)))
        return "result differs from the same spec run standalone";
    if (ref.front.size() != rep.front.size()) return "front differs from the standalone run";
    for (std::size_t i = 0; i < ref.front.size(); ++i) {
        const auto& [genome, values] = rep.front[i];
        if (ref.front[i].genome != genome || ref.front[i].values.size() != values.size())
            return "front differs from the standalone run";
        for (std::size_t k = 0; k < values.size(); ++k)
            if (!same_bits(ref.front[i].values[k], values[k]))
                return "front differs from the standalone run";
    }
    if (!rep.feasible) return "found no feasible design";

    const nt::ip::IpGenerator& gen = spec.ip == "router" ? *opt.router : *opt.fft;
    const Metric metric = *nt::ip::metric_from_name(spec.metric);
    const Direction dir = spec.direction == "min" ? Direction::minimize : Direction::maximize;
    const double optimum = spec.ip == "router" ? opt.router_freq : opt.fft_luts;
    if (spec.engine == "nsga2") {
        for (const auto& [text, values] : rep.front) {
            const auto g = parse_genome(gen.space(), text);
            if (!g) return "front genome does not parse: " + text;
            const nt::ip::MetricValues mv = gen.evaluate(*g);
            const auto f = mv.try_get(Metric::freq_mhz);
            const auto a = mv.try_get(Metric::area_luts);
            if (!mv.feasible || !f || !a || values.size() != 2 || !same_bits(*f, values[0]) ||
                !same_bits(*a, values[1]))
                return "front point does not re-evaluate bit-exactly: " + text;
            if (values[0] > opt.router_freq || values[1] < opt.router_luts)
                return "front point beats the space optimum";
        }
        return {};
    }
    if (better(dir, rep.best, optimum)) return "best beats the space optimum";
    if (!rep.genome.empty()) {
        const auto g = parse_genome(gen.space(), rep.genome);
        if (!g) return "best genome does not parse: " + rep.genome;
        const nt::Evaluation e = gen.metric_eval(metric)(*g);
        if (!e.feasible || !same_bits(e.value, rep.best))
            return "best does not re-evaluate bit-exactly";
    }
    return {};
}

}  // namespace

RunOutput run_serve_mixed(const Options& opt)
{
    RunOutput out;
    const std::string root = opt.out_dir + "/serve-" + std::to_string(::getpid());

    // --- Inputs: a fixed count of jobs placed uniformly at random in the
    // window (a Poisson process conditioned on its count), ten-job blocks
    // of the mix in seeded order, and a unique seed per job.
    const std::size_t count = std::max<std::size_t>(
        10, static_cast<std::size_t>(std::lround(kJobsPerSecond * opt.seconds)));
    nt::Rng rng{opt.seed ^ 0x73657276ull};
    std::vector<JobRecord> jobs(count);
    std::vector<double> due;
    for (std::size_t i = 0; i < count; ++i) due.push_back(rng.uniform() * opt.seconds);
    std::sort(due.begin(), due.end());
    const std::uint64_t seed_base = rng.next_u64() % 1'000'000'000'000ull;
    for (std::size_t block = 0; block * 10 < count; ++block) {
        std::size_t order[10] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
        for (std::int64_t i = 9; i > 0; --i)
            std::swap(order[i], order[rng.uniform_int(0, i)]);
        for (std::size_t k = 0; k < 10 && block * 10 + k < count; ++k) {
            JobRecord& j = jobs[block * 10 + k];
            const MixEntry& entry = mix_entry(order[k], block);
            j.kind = entry.kind;
            j.spec = std::string{entry.spec} + ",\"seed\":" +
                     std::to_string(seed_base + block * 10 + k) + "}";
            j.strong_router_ga = entry.strong_router_ga;
            j.due_s = due[block * 10 + k];
        }
    }

    // --- Set-up, repeated; the last one is used --------------------------
    std::vector<double> setup_times;
    std::unique_ptr<ServerStack> stack;
    for (int rep = 0; rep < 5; ++rep) {
        stack.reset();
        const auto t0 = Clock::now();
        stack = std::make_unique<ServerStack>(root);
        setup_times.push_back(seconds_between(t0, Clock::now()));
    }

    // --- Timed window: send on schedule, wait on each job ----------------
    SpanLog spans;
    double span_bookkeeping_s = 0.0;
    std::vector<std::thread> waiters;
    waiters.reserve(count);
    // Joins the waiters on every path out, before the jobs they write to
    // and the scheduler they wait on are destroyed.
    struct JoinAll {
        std::vector<std::thread>& threads;
        ~JoinAll()
        {
            for (std::thread& t : threads)
                if (t.joinable()) t.join();
        }
    } join_all{waiters};
    const auto t0 = Clock::now();
    const auto wait_until = t0 + std::chrono::duration<double>(opt.seconds + kDrainSeconds);
    for (JobRecord& j : jobs) {
        std::this_thread::sleep_until(t0 + std::chrono::duration<double>(j.due_s));
        const auto sent = Clock::now();
        const HttpReply reply = http_request(stack->port(), "POST", "/jobs", j.spec);
        const auto replied = Clock::now();
        j.sent_s = seconds_between(t0, sent);
        j.replied_s = seconds_between(t0, replied);
        j.post_status = reply.status;
        if (reply.status != 201) continue;
        const Json created = parse_json(reply.body);
        const Json* id = created.get("id");
        if (id == nullptr) {
            j.post_status = 0;
            continue;
        }
        j.id = static_cast<std::uint64_t>(id->number());
        waiters.emplace_back([&j, &stack, t0, wait_until] {
            const double left = std::chrono::duration<double>(wait_until - Clock::now()).count();
            j.completed = stack->scheduler->wait(j.id, std::max(0.0, left));
            j.completed_s = seconds_between(t0, Clock::now());
        });
        if (opt.trace) {
            const auto b0 = Clock::now();
            spans.add({"post", j.id, 0, spans.at(sent), spans.at(replied), 0, 0, 0, 0});
            span_bookkeeping_s += seconds_between(b0, Clock::now());
        }
    }
    for (std::thread& t : waiters) t.join();
    const double window_s = seconds_between(t0, Clock::now());
    const double peak_rss = peak_rss_mb();

    // --- Reports and checks ----------------------------------------------
    const Optima optima;
    std::vector<JobReport> reports;
    Digest digest;
    out.attempted = count;
    std::vector<double> latency_ms, run_ms, queue_ms, late_ms, post_ms;
    double last_completion_s = 0.0;
    nt::MultiRunCurve strong_curves{Direction::maximize};
    for (std::size_t i = 0; i < count; ++i) {
        const JobRecord& j = jobs[i];
        reports.push_back(j.post_status == 201 ? read_job(*stack, j.id, j.strong_router_ga)
                                               : JobReport{});
        const JobReport& r = reports.back();
        late_ms.push_back((j.sent_s - j.due_s) * 1e3);
        post_ms.push_back((j.replied_s - j.sent_s) * 1e3);
        const std::string problem = check_job(j, r, optima);
        if (!problem.empty()) {
            out.fail(format("job %zu (%s): %s", i, j.spec.c_str(), problem.c_str()));
            continue;
        }
        latency_ms.push_back((j.completed_s - j.due_s) * 1e3);
        run_ms.push_back(r.run_s * 1e3);
        queue_ms.push_back(r.queue_wait_s * 1e3);
        last_completion_s = std::max(last_completion_s, j.completed_s);
        digest.add(static_cast<std::uint64_t>(r.distinct));
        digest.add(r.best);
        for (const auto& [genome, values] : r.front)
            for (const double v : values) digest.add(v);
        if (j.strong_router_ga && !r.curve.empty()) strong_curves.add_run(r.curve);
        if (opt.trace) {
            const auto b0 = Clock::now();
            spans.add({"job", j.id, 0, j.due_s, j.completed_s, r.wave_s, r.waves, 0.0, r.fresh});
            span_bookkeeping_s += seconds_between(b0, Clock::now());
        }
    }
    out.digest = digest.value();
    const std::size_t completed = latency_ms.size();

    // evals_to_1pct over the strongly guided GA router jobs.
    double evals_to_1pct = 0.0;
    if (strong_curves.runs() > 0) {
        const double threshold = optima.router_freq - 0.01 * std::fabs(optima.router_freq);
        const auto x = strong_curves.mean_curve_crossing(threshold);
        double spent = 0.0;
        for (std::size_t r = 0; r < strong_curves.runs(); ++r)
            spent = std::max(spent, strong_curves.run(r).final_evals());
        evals_to_1pct = x ? *x : spent;
        out.note(format("evals_to_1pct over %zu strong router GA jobs: %.1f%s",
                        strong_curves.runs(), evals_to_1pct,
                        x ? "" : "  (mean curve never within 1%)"));
    }
    else {
        out.fail("no strong router GA job finished");
    }

    std::uint64_t trace_bytes = 0, events = 0, checkpoints = 0, waves = 0, fresh = 0,
                  distinct = 0, calls = 0, store_hits = 0;
    double wave_s = 0.0, run_s = 0.0, model_est_s = 0.0;
    for (const JobReport& r : reports) {
        trace_bytes += r.trace_bytes;
        events += r.events;
        checkpoints += r.checkpoints;
        waves += r.waves;
        wave_s += r.wave_s;
        run_s += r.run_s;
        fresh += r.fresh;
        distinct += r.distinct;
        calls += r.calls;
        store_hits += r.store_hits;
    }
    const double n = std::max<double>(1.0, static_cast<double>(completed));

    out.note(format("serve_mixed: %zu jobs at %.2f jobs/s open loop over %.1f s, %zu completed, "
                    "window+drain %.3f s, %zu slots",
                    count, kJobsPerSecond, opt.seconds, completed, window_s, kCapacity));
    out.note(format("generator lateness: p50 %.3f ms, p90 %.3f ms, max %.3f ms",
                    quantile(late_ms, 0.5), quantile(late_ms, 0.9),
                    late_ms.empty() ? 0.0 : *std::max_element(late_ms.begin(), late_ms.end())));

    std::map<std::string, std::vector<std::size_t>> by_kind;
    for (std::size_t i = 0; i < count; ++i)
        if (jobs[i].completed) by_kind[jobs[i].kind].push_back(i);
    for (const auto& [kind, members] : by_kind) {
        std::vector<double> run, lat;
        for (const std::size_t i : members) {
            run.push_back(reports[i].run_s * 1e3);
            lat.push_back((jobs[i].completed_s - jobs[i].due_s) * 1e3);
        }
        out.note(format("  %-20s %3zu jobs  run p50 %7.1f max %7.1f ms  "
                        "latency p50 %7.1f max %7.1f ms",
                        kind.c_str(), members.size(), quantile(run, 0.5), quantile(run, 1.0),
                        quantile(lat, 0.5), quantile(lat, 1.0)));
    }

    if (!opt.trace) {
        Values& e = out.end_to_end;
        e["searches_per_s"] = last_completion_s > 0.0 ? completed / last_completion_s : 0.0;
        e["search_p50_ms"] = quantile(run_ms, 0.50);
        e["search_p99_ms"] = quantile(run_ms, 0.99);
        e["evals_to_1pct"] = evals_to_1pct;
        e["job_latency_p50_ms"] = quantile(latency_ms, 0.50);
        e["job_latency_p90_ms"] = quantile(latency_ms, 0.90);
        e["trace_bytes_per_job"] = static_cast<double>(trace_bytes) / n;
        e["setup_s"] = median(setup_times);
        e["peak_rss_mb"] = peak_rss;
        return out;
    }

    Values v = measure_micro(opt);
    // Isolated model cost x fresh evaluations, by IP.
    for (std::size_t i = 0; i < count; ++i) {
        const bool router = jobs[i].spec.find("\"router\"") != std::string::npos;
        model_est_s += static_cast<double>(reports[i].fresh) *
                       v[router ? "model.router.eval_ns" : "model.fft.eval_ns"] * 1e-9;
    }
    v["model.share"] = model_est_s / run_s;
    v["model.calls_per_search"] = static_cast<double>(fresh) / n;
    v["core.memo.hit_ratio"] = calls == 0 ? 0.0 : 1.0 - static_cast<double>(distinct) / calls;
    v["core.pool.wave_share"] = (wave_s - model_est_s) / run_s;
    v["core.engine.self_share"] = 1.0 - wave_s / run_s;
    v["core.checkpoint.writes_per_job"] = static_cast<double>(checkpoints) / n;
    v["core.store.hit_ratio"] = distinct == 0 ? 0.0 : static_cast<double>(store_hits) / distinct;
    v["obs.trace.events_per_job"] = static_cast<double>(events) / n;
    v["obs.trace.bytes_per_event"] = events == 0 ? 0.0 : static_cast<double>(trace_bytes) / events;
    v["obs.http.post_ms"] = median(post_ms);
    v["serve.queue_wait_ms_p50"] = quantile(queue_ms, 0.5);
    v["serve.queue_wait_ms_p90"] = quantile(queue_ms, 0.9);
    v["serve.run_ms_p50"] = quantile(run_ms, 0.5);
    v["bench.trace_overhead_share"] = span_bookkeeping_s / window_s;

    // Isolated per-op costs x this run's counts, against the jobs' summed
    // run time (admission to completion).
    const double dispatch_ns =
        std::max(0.0, v["core.pool.wave_us.w1"] * 1e3 - 10.0 * v["core.memo.hit_ns"]);
    const double predicted_s =
        model_est_s +
        static_cast<double>(distinct) *
            (v["core.memo.miss_overhead_ns"] + v["core.guard.overhead_ns"] +
             v["core.store.lookup_hit_ns"]) * 1e-9 +
        static_cast<double>(fresh) * v["core.store.insert_ns"] * 1e-9 +
        static_cast<double>(calls - std::min(calls, distinct)) * v["core.memo.hit_ns"] * 1e-9 +
        static_cast<double>(waves) * dispatch_ns * 1e-9 +
        static_cast<double>(checkpoints) * v["core.checkpoint.save_ms"] * 1e-3 +
        static_cast<double>(events) * v["obs.trace.emit_ns"] * 1e-9;
    v["unattributed_share"] = 1.0 - predicted_s / run_s;
    out.note(format("attribution: isolated costs x counts = %.3f s of %.3f s summed job run time",
                    predicted_s, run_s));
    out.per_layer = std::move(v);

    std::filesystem::create_directories(opt.out_dir);
    const std::string span_path = opt.out_dir + "/serve_mixed.spans.csv";
    spans.write(span_path);
    out.note("spans written to " + span_path);
    return out;
}

Values measure_serve_micro(const Options& opt, const std::string& dir)
{
    Values v;
    const ServerStack stack{dir + "/serve-micro"};
    constexpr int kJobs = 8;
    std::vector<std::uint64_t> ids;
    std::vector<double> post_ms;
    for (int i = 0; i < kJobs; ++i) {
        const std::string spec =
            R"({"engine":"ga","ip":"router","metric":"freq_mhz","guidance":"strong",)"
            R"("generations":20,"workers":1,"seed":)" + std::to_string(opt.seed + i) + "}";
        const auto t0 = Clock::now();
        const HttpReply reply = http_request(stack.port(), "POST", "/jobs", spec);
        post_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
        const Json created = reply.status == 201 ? parse_json(reply.body) : Json{};
        const Json* id = created.get("id");
        if (id == nullptr) throw std::runtime_error("micro pass: POST /jobs failed");
        ids.push_back(static_cast<std::uint64_t>(id->number()));
    }
    std::vector<double> queue_ms, run_ms;
    for (const std::uint64_t id : ids) {
        if (!stack.scheduler->wait(id, 60.0)) throw std::runtime_error("micro pass: job timed out");
        const JobReport r = read_job(stack, id, false);
        queue_ms.push_back(r.queue_wait_s * 1e3);
        run_ms.push_back(r.run_s * 1e3);
    }
    v["obs.http.post_ms"] = median(post_ms);
    v["serve.queue_wait_ms_p50"] = quantile(queue_ms, 0.5);
    v["serve.queue_wait_ms_p90"] = quantile(queue_ms, 0.9);
    v["serve.run_ms_p50"] = quantile(run_ms, 0.5);

    std::vector<double> respond_us;
    for (int i = 0; i < 200; ++i) {
        const auto t0 = Clock::now();
        (void)stack.server->respond("GET", "/jobs/1", "");
        respond_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    }
    v["obs.http.respond_us"] = median(respond_us);

    const std::string spec =
        R"({"engine":"nsga2","ip":"router","metric":"freq_mhz","metric2":"area_luts",)"
        R"("generations":40,"workers":1,"seed":12345})";
    std::vector<double> parse_us;
    for (int i = 0; i < 200; ++i) {
        const auto t0 = Clock::now();
        for (int k = 0; k < 10; ++k) (void)nt::serve::parse_job_spec(spec);
        parse_us.push_back(seconds_between(t0, Clock::now()) * 1e6 / 10);
    }
    v["serve.spec.parse_us"] = median(parse_us);
    return v;
}

}  // namespace perfbench
