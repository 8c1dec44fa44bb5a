#include "serve/job_spec.hpp"

#include <cstdio>
#include <iterator>
#include <map>
#include <stdexcept>

#include "ip/metrics.hpp"
#include "obs/json.hpp"

namespace nautilus::serve {

namespace {

[[noreturn]] void fail(const std::string& message)
{
    throw std::invalid_argument(message);
}

using Fields = std::map<std::string, obs::JsonValue>;

std::string take_string(Fields& fields, const std::string& name, std::string fallback)
{
    const auto it = fields.find(name);
    if (it == fields.end()) return fallback;
    if (it->second.kind != obs::JsonValue::Kind::string)
        fail("field '" + name + "' must be a string");
    std::string out = std::move(it->second.text);
    fields.erase(it);
    return out;
}

// Integer fields: the token must be a plain non-negative decimal -- no
// fractions, exponents or signs -- so "workers": -2 and "seed": 1e99 are
// both rejected with the offending text.
std::uint64_t take_uint(Fields& fields, const std::string& name, std::uint64_t fallback,
                        bool* present = nullptr)
{
    const auto it = fields.find(name);
    if (present != nullptr) *present = it != fields.end();
    if (it == fields.end()) return fallback;
    const obs::JsonValue& v = it->second;
    if (v.kind != obs::JsonValue::Kind::number)
        fail("field '" + name + "' must be a non-negative integer");
    std::uint64_t out = 0;
    if (v.text.find_first_of(".eE-") != std::string::npos || !obs::from_json_number(v.text, out))
        fail("field '" + name + "' must be a non-negative integer (got " + v.text + ")");
    fields.erase(it);
    return out;
}

const char* kAllowedFields =
    "engine, ip, metric, metric2, direction, guidance, generations, evals, "
    "population, seed, workers";

void validate_metric_name(const std::string& field, const std::string& name)
{
    if (!ip::metric_from_name(name))
        fail("unknown " + field + " '" + name +
             "' (see ip::metric_name for the metric list)");
}

void append_uint(std::string& out, std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
    out += buf;
}

}  // namespace

const char* default_metric_name(std::string_view ip)
{
    if (ip == "fft") return "area_luts";
    if (ip == "network") return "bisection_gbps";
    return "freq_mhz";
}

JobSpec parse_job_spec(std::string_view json)
{
    // One flat object read by obs/json's strict reader; a grammar error
    // (duplicate keys included) is reported with its byte offset.
    obs::FlatObject object = obs::parse_flat_object(json);
    if (object.error) fail("spec is not valid JSON: " + object.error->describe());
    Fields fields(std::make_move_iterator(object.fields.begin()),
                  std::make_move_iterator(object.fields.end()));

    JobSpec spec;
    spec.engine = take_string(fields, "engine", "");
    if (spec.engine.empty())
        fail("missing field 'engine' (expected one of: ga, nsga2, random, sa, hc)");
    if (spec.engine != "ga" && spec.engine != "nsga2" && spec.engine != "random" &&
        spec.engine != "sa" && spec.engine != "hc")
        fail("unknown engine '" + spec.engine +
             "' (expected one of: ga, nsga2, random, sa, hc)");

    spec.ip = take_string(fields, "ip", "router");
    if (spec.ip != "router" && spec.ip != "fft" && spec.ip != "network")
        fail("unknown ip '" + spec.ip + "' (expected router, fft, network)");

    spec.metric = take_string(fields, "metric", default_metric_name(spec.ip));
    validate_metric_name("metric", spec.metric);

    spec.metric2 = take_string(fields, "metric2", "");
    if (spec.engine == "nsga2") {
        if (spec.metric2.empty())
            fail("missing field 'metric2': nsga2 jobs map a two-metric front");
        validate_metric_name("metric2", spec.metric2);
        if (spec.metric2 == spec.metric)
            fail("fields 'metric' and 'metric2' must name different metrics");
    }
    else if (!spec.metric2.empty()) {
        fail("field 'metric2' only applies to engine 'nsga2'");
    }

    spec.direction = take_string(fields, "direction", "");
    if (spec.direction.empty()) {
        const auto m = ip::metric_from_name(spec.metric);
        spec.direction =
            ip::metric_default_direction(*m) == Direction::minimize ? "min" : "max";
    }
    else if (spec.direction != "min" && spec.direction != "max") {
        fail("field 'direction' must be 'min' or 'max' (got '" + spec.direction + "')");
    }

    spec.guidance = take_string(fields, "guidance", "none");
    if (spec.guidance != "none" && spec.guidance != "weak" && spec.guidance != "strong")
        fail("field 'guidance' must be none, weak or strong ('estimated' samples the "
             "space with extra RNG draws and is not allowed in job specs)");

    bool have_generations = false;
    bool have_evals = false;
    spec.generations =
        static_cast<std::size_t>(take_uint(fields, "generations", 0, &have_generations));
    spec.evals = static_cast<std::size_t>(take_uint(fields, "evals", 0, &have_evals));
    if (spec.evolutionary()) {
        if (have_evals)
            fail("field 'evals' does not apply to engine '" + spec.engine +
                 "' (its budget is 'generations')");
        if (!have_generations)
            fail("missing field 'generations': " + spec.engine +
                 " jobs take their budget in generations");
        if (spec.generations == 0)
            fail("field 'generations' must be a positive integer (got 0)");
    }
    else {
        if (have_generations)
            fail("field 'generations' does not apply to engine '" + spec.engine +
                 "' (its budget is 'evals', the distinct-evaluation cap)");
        if (!have_evals)
            fail("missing field 'evals': " + spec.engine +
                 " jobs take their budget in distinct evaluations");
        if (spec.evals == 0) fail("field 'evals' must be a positive integer (got 0)");
    }

    bool have_population = false;
    spec.population =
        static_cast<std::size_t>(take_uint(fields, "population", 0, &have_population));
    if (have_population) {
        if (!spec.evolutionary())
            fail("field 'population' does not apply to engine '" + spec.engine + "'");
        if (spec.population == 0)
            fail("field 'population' must be a positive integer (got 0)");
    }

    spec.seed = take_uint(fields, "seed", 1);
    spec.workers = static_cast<std::size_t>(take_uint(fields, "workers", 1));
    if (spec.workers == 0) fail("field 'workers' must be a positive integer (got 0)");

    if (!fields.empty())
        fail("unknown field '" + fields.begin()->first + "' (allowed: " + kAllowedFields +
             ")");
    return spec;
}

std::string canonical_spec_json(const JobSpec& spec)
{
    std::string out = "{\"engine\":";
    obs::append_json_string(out, spec.engine);
    const auto text = [&out](const char* key, const std::string& value) {
        out += ",\"";
        out += key;
        out += "\":";
        obs::append_json_string(out, value);
    };
    const auto number = [&out](const char* key, std::uint64_t value) {
        out += ",\"";
        out += key;
        out += "\":";
        append_uint(out, value);
    };
    text("ip", spec.ip);
    text("metric", spec.metric);
    if (!spec.metric2.empty()) text("metric2", spec.metric2);
    text("direction", spec.direction);
    text("guidance", spec.guidance);
    if (spec.evolutionary()) {
        number("generations", spec.generations);
        if (spec.population != 0) number("population", spec.population);
    }
    else {
        number("evals", spec.evals);
    }
    number("seed", spec.seed);
    number("workers", spec.workers);
    out += "}";
    return out;
}

std::uint64_t spec_fingerprint(const JobSpec& spec)
{
    const std::string canonical = canonical_spec_json(spec);
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64
    for (const char c : canonical) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

std::string checkpoint_file(const std::string& jobs_dir, const JobSpec& spec)
{
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(spec_fingerprint(spec)));
    return jobs_dir + "/spec-" + hex + ".ckpt";
}

}  // namespace nautilus::serve
