#pragma once
// Shared plumbing for the Nautilus benchmark: options, sample statistics,
// the result digest, in-memory spans, and the run record every workload
// fills in.  Nothing here calls into the library; the workloads do.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;  // length of the timed window
    bool trace = false;     // per-layer run (spans + micro pass) instead of end-to-end
    std::string out_dir;    // scratch files and the span log live here
};

// Linear-interpolated quantile (q in [0, 1]) of unsorted samples; 0 when empty.
double quantile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) { return quantile(std::move(samples), 0.5); }

// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

// FNV-1a over the values a run must reproduce exactly.
class Digest {
public:
    void add(std::uint64_t v);
    void add(double v);  // by bit pattern
    std::uint64_t value() const { return h_; }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// Metric values by name; units and order come from the metric table in
// main.cpp, which also refuses a run that leaves a metric out.
using Values = std::map<std::string, double>;

// One span of the benchmark's own trace.  Child layers that fire thousands
// of times per span (eval waves, model calls) are aggregated into it rather
// than stored one by one: a span carries the summed time and count of its
// waves and of the model calls inside them.
struct Span {
    const char* name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = root
    double start_s = 0.0;      // seconds since the run's time origin
    double end_s = 0.0;
    double wave_s = 0.0;
    std::uint64_t waves = 0;
    double model_s = 0.0;
    std::uint64_t model_calls = 0;
};

class SpanLog {
public:
    SpanLog() : origin_(Clock::now()) {}
    double at(Clock::time_point t) const { return seconds_between(origin_, t); }
    void add(const Span& span) { spans_.push_back(span); }
    const std::vector<Span>& spans() const { return spans_; }
    // CSV, one span per line; throws std::runtime_error on I/O failure.
    void write(const std::string& path) const;

private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

// Everything one run reports.
struct RunOutput {
    Values end_to_end;  // untraced runs
    Values per_layer;   // traced runs
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::uint64_t digest = 0;
    std::vector<std::string> notes;  // human-readable lines printed before the result

    void note(std::string line) { notes.push_back(std::move(line)); }
    // Record `attempts` attempts that failed a correctness check.
    void fail(const std::string& what, std::size_t attempts = 1);
};

std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
