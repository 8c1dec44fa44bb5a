// nautilus_perfbench: the repository's benchmark.
//
//   nautilus_perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// --trace 0 runs the workload untraced and reports the end-to-end metrics;
// --trace 1 runs it again with the benchmark's own spans around each
// layer's public calls, plus the isolated micro pass, and reports the
// per-layer metrics.  Human-readable lines come first; the last line of
// stdout is one JSON object {"correct","attempted","failed","metrics"}.
// Exit status: 0 after a complete run (correct or not), 2 on bad usage or
// an internal error, in which case no result line is printed.

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using namespace perfbench;

struct MetricDef {
    const char* name;
    const char* unit;
};

// Kept in step with BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"searches_per_s", "1/s"},      {"search_p50_ms", "ms"},
    {"search_p99_ms", "ms"},        {"evals_to_1pct", "evals"},
    {"job_latency_p50_ms", "ms"},   {"job_latency_p90_ms", "ms"},
    {"trace_bytes_per_job", "bytes"}, {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},         {"ok_frac", "frac"},
};

constexpr MetricDef kPerLayer[] = {
    {"model.router.eval_ns", "ns"},
    {"model.fft.eval_ns", "ns"},
    {"model.network.eval_ns", "ns"},
    {"model.share", "frac"},
    {"model.calls_per_search", "count"},
    {"ip.dataset.lookup_ns", "ns"},
    {"ip.dataset.enumerate_s", "s"},
    {"core.memo.hit_ns", "ns"},
    {"core.memo.miss_overhead_ns", "ns"},
    {"core.memo.hit_ratio", "frac"},
    {"core.guard.overhead_ns", "ns"},
    {"core.pool.wave_us.w1", "us"},
    {"core.pool.wave_us.w4", "us"},
    {"core.pool.wave_share", "frac"},
    {"core.pool.w4_query_slowdown", "x"},
    {"core.breed.child_ns", "ns"},
    {"core.select.rebuild_ns", "ns"},
    {"core.engine.self_share", "frac"},
    {"core.engine.run_setup_us", "us"},
    {"core.nsga2.sort_us", "us"},
    {"core.nsga2.crowding_us", "us"},
    {"core.checkpoint.save_ms", "ms"},
    {"core.checkpoint.bytes", "bytes"},
    {"core.checkpoint.writes_per_job", "count"},
    {"core.store.lookup_hit_ns", "ns"},
    {"core.store.insert_ns", "ns"},
    {"core.store.flush_ms", "ms"},
    {"core.store.hit_ratio", "frac"},
    {"obs.trace.emit_ns", "ns"},
    {"obs.trace.events_per_job", "count"},
    {"obs.trace.bytes_per_event", "bytes"},
    {"obs.trace.job_slowdown", "x"},
    {"obs.http.post_ms", "ms"},
    {"obs.http.respond_us", "us"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p90", "ms"},
    {"serve.run_ms_p50", "ms"},
    {"serve.spec.parse_us", "us"},
    {"exp.query_s.fig4", "s"},
    {"exp.query_s.fig5", "s"},
    {"exp.query_s.fig6", "s"},
    {"exp.query_s.fig7", "s"},
    {"unattributed_share", "frac"},
    {"bench.trace_overhead_share", "frac"},
};

[[noreturn]] void usage(const char* why)
{
    std::fprintf(stderr,
                 "nautilus_perfbench: %s\n"
                 "usage: nautilus_perfbench --workload query_router_model|figures_dataset|"
                 "serve_mixed --seed N --seconds S --trace 0|1 [--out DIR]\n",
                 why);
    std::exit(2);
}

std::uint64_t parse_u64(const char* text, const char* flag)
{
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        usage((std::string{"invalid value for "} + flag).c_str());
    return v;
}

Options parse_options(int argc, char** argv)
{
    Options opt;
    bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
    opt.out_dir = ".bench_out";
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
        const char* value = argv[++i];
        if (flag == "--workload") {
            opt.workload = value;
            have_workload = true;
        }
        else if (flag == "--seed") {
            opt.seed = parse_u64(value, "--seed");
            have_seed = true;
        }
        else if (flag == "--seconds") {
            char* end = nullptr;
            opt.seconds = std::strtod(value, &end);
            if (end == value || *end != '\0' || !(opt.seconds > 0.0) || opt.seconds > 600.0)
                usage("--seconds must be a number in (0, 600]");
            have_seconds = true;
        }
        else if (flag == "--trace") {
            const std::uint64_t t = parse_u64(value, "--trace");
            if (t > 1) usage("--trace must be 0 or 1");
            opt.trace = t == 1;
            have_trace = true;
        }
        else if (flag == "--out") {
            opt.out_dir = value;
        }
        else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds and --trace are required");
    return opt;
}

}  // namespace

int main(int argc, char** argv)
{
    const Options opt = parse_options(argc, argv);
    RunOutput out;
    try {
        if (opt.workload == "query_router_model")
            out = run_query_router_model(opt);
        else if (opt.workload == "figures_dataset")
            out = run_figures_dataset(opt);
        else if (opt.workload == "serve_mixed")
            out = run_serve_mixed(opt);
        else
            usage(("unknown workload " + opt.workload).c_str());
    }
    catch (const std::exception& e) {
        std::fprintf(stderr, "nautilus_perfbench: %s\n", e.what());
        return 2;
    }

    const double failed_frac =
        out.attempted == 0 ? 1.0
                           : static_cast<double>(out.failed) / static_cast<double>(out.attempted);
    out.end_to_end["ok_frac"] = 1.0 - failed_frac;

    for (const std::string& line : out.notes) std::printf("%s\n", line.c_str());
    std::printf("workload %s seed %" PRIu64 " trace %d\n", opt.workload.c_str(), opt.seed,
                opt.trace ? 1 : 0);
    std::printf("digest %016" PRIx64 "\n", out.digest);
    std::printf("attempted %zu failed %zu failed_frac %.6f\n", out.attempted, out.failed,
                failed_frac);

    std::string metrics;
    const auto emit = [&](const MetricDef& def, const Values& values) {
        const auto it = values.find(def.name);
        if (it == values.end() || !std::isfinite(it->second)) {
            std::fprintf(stderr, "nautilus_perfbench: metric %s was not measured\n", def.name);
            std::exit(2);
        }
        std::printf("metric %-32s %.9g %s\n", def.name, it->second, def.unit);
        char buf[256];
        std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      metrics.empty() ? "" : ", ", def.name, it->second, def.unit);
        metrics += buf;
    };
    if (opt.trace)
        for (const MetricDef& def : kPerLayer) emit(def, out.per_layer);
    else
        for (const MetricDef& def : kEndToEnd) emit(def, out.end_to_end);

    const bool correct = out.failed == 0 && out.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
                correct ? "true" : "false", std::max<std::size_t>(out.attempted, 1), out.failed,
                metrics.c_str());
    return 0;
}
