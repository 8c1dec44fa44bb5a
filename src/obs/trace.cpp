#include "obs/trace.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "obs/format.hpp"
#include "obs/json.hpp"

namespace nautilus::obs {

namespace {

void append_value(std::string& out, const FieldValue& value)
{
    switch (value.index()) {
    case 0: out += std::get<bool>(value) ? "true" : "false"; break;
    case 1: out += std::to_string(std::get<std::int64_t>(value)); break;
    case 2: out += std::to_string(std::get<std::uint64_t>(value)); break;
    case 3: append_json_double(out, std::get<double>(value)); break;
    case 4: append_json_string(out, std::get<std::string>(value)); break;
    case 5: {
        const auto& vec = std::get<std::vector<double>>(value);
        out += '[';
        for (std::size_t i = 0; i < vec.size(); ++i) {
            if (i > 0) out += ',';
            append_json_element(out, vec[i]);
        }
        out += ']';
        break;
    }
    }
}

// The trace's reading of a JSON value.  Numbers keep their emitted kind: a
// '.' or exponent means double, a leading '-' means int64, anything else
// uint64.  False when a number is out of range for its kind.
bool field_value(JsonValue& json, FieldValue& out)
{
    switch (json.kind) {
    case JsonValue::Kind::string: out = std::move(json.text); return true;
    case JsonValue::Kind::boolean: out = json.truth; return true;
    case JsonValue::Kind::null: out = std::numeric_limits<double>::quiet_NaN(); return true;
    case JsonValue::Kind::array: out = std::move(json.numbers); return true;
    case JsonValue::Kind::number: break;
    }
    const std::string_view token = json.text;
    if (token.find_first_of(".eE") != std::string_view::npos)
        return from_json_number(token, out.emplace<double>());
    if (token.front() == '-') return from_json_number(token, out.emplace<std::int64_t>());
    return from_json_number(token, out.emplace<std::uint64_t>());
}

}  // namespace

const FieldValue* TraceEvent::find(std::string_view key) const
{
    for (const auto& [k, v] : fields)
        if (k == key) return &v;
    return nullptr;
}

std::optional<double> TraceEvent::number(std::string_view key) const
{
    const FieldValue* v = find(key);
    if (v == nullptr) return std::nullopt;
    if (const auto* d = std::get_if<double>(v)) return *d;
    if (const auto* i = std::get_if<std::int64_t>(v)) return static_cast<double>(*i);
    if (const auto* u = std::get_if<std::uint64_t>(v)) return static_cast<double>(*u);
    return std::nullopt;
}

std::optional<std::uint64_t> TraceEvent::unsigned_int(std::string_view key) const
{
    const FieldValue* v = find(key);
    if (v == nullptr) return std::nullopt;
    if (const auto* u = std::get_if<std::uint64_t>(v)) return *u;
    if (const auto* i = std::get_if<std::int64_t>(v); i != nullptr && *i >= 0)
        return static_cast<std::uint64_t>(*i);
    return std::nullopt;
}

std::optional<std::string> TraceEvent::string(std::string_view key) const
{
    const FieldValue* v = find(key);
    if (v == nullptr) return std::nullopt;
    if (const auto* s = std::get_if<std::string>(v)) return *s;
    return std::nullopt;
}

std::string to_jsonl(const TraceEvent& event)
{
    std::string out;
    out.reserve(64 + event.fields.size() * 16);
    out += "{\"type\":";
    append_json_string(out, event.type);
    out += ",\"t\":";
    append_json_double(out, event.t);
    for (const auto& [key, value] : event.fields) {
        out += ',';
        append_json_string(out, key);
        out += ':';
        append_value(out, value);
    }
    out += '}';
    return out;
}

std::optional<TraceEvent> parse_jsonl_line(std::string_view line)
{
    return parse_jsonl_line(line, nullptr);
}

std::optional<TraceEvent> parse_jsonl_line(std::string_view line, JsonError* error)
{
    const auto reject = [error](JsonError why) -> std::optional<TraceEvent> {
        if (error != nullptr) *error = std::move(why);
        return std::nullopt;
    };
    FlatObject object = parse_flat_object(line);
    if (object.error) return reject(std::move(*object.error));

    TraceEvent event{""};
    bool have_type = false;
    for (auto& [key, json] : object.fields) {
        FieldValue value;
        if (!field_value(json, value)) return reject({"number out of range", json.offset});
        if (key == "type") {
            auto* s = std::get_if<std::string>(&value);
            if (s == nullptr) return reject({"\"type\" is not a string", json.offset});
            event.type = std::move(*s);
            have_type = true;
        }
        else if (key == "t") {
            const auto* d = std::get_if<double>(&value);
            if (d == nullptr) return reject({"\"t\" is not a double", json.offset});
            event.t = *d;
        }
        else {
            event.fields.emplace_back(std::move(key), std::move(value));
        }
    }
    if (!have_type) return reject({"missing \"type\"", line.size()});
    return event;
}

JsonlFileSink::JsonlFileSink(const std::string& path) : path_(path), out_(path, std::ios::trunc)
{
    if (!out_) throw std::runtime_error("JsonlFileSink: cannot open '" + path + "'");
}

JsonlFileSink::~JsonlFileSink()
{
    const bool reported = reported_;
    try {
        flush();
    }
    catch (const std::runtime_error& e) {
        // A failure no flush() caller has seen is printed rather than lost.
        if (!reported) std::fprintf(stderr, "%s\n", e.what());
    }
}

void JsonlFileSink::note_failure()
{
    if (!failure_.empty()) return;
    failure_ = errno != 0 ? std::strerror(errno) : "stream error";
}

void JsonlFileSink::write(const TraceEvent& event)
{
    const std::string line = to_jsonl(event);
    std::lock_guard lock{mutex_};
    errno = 0;
    out_ << line << '\n';
    if (!out_) note_failure();
}

void JsonlFileSink::flush()
{
    std::lock_guard lock{mutex_};
    errno = 0;
    out_.flush();
    if (!out_) note_failure();
    if (failure_.empty()) return;
    reported_ = true;
    throw std::runtime_error("JsonlFileSink: cannot write '" + path_ + "': " + failure_);
}

void MemorySink::write(const TraceEvent& event)
{
    std::lock_guard lock{mutex_};
    events_.push_back(event);
}

std::vector<TraceEvent> MemorySink::events() const
{
    std::lock_guard lock{mutex_};
    return events_;
}

std::size_t MemorySink::size() const
{
    std::lock_guard lock{mutex_};
    return events_.size();
}

std::vector<TraceEvent> MemorySink::events_of(std::string_view type) const
{
    std::lock_guard lock{mutex_};
    std::vector<TraceEvent> out;
    for (const auto& e : events_)
        if (e.type == type) out.push_back(e);
    return out;
}

namespace {
thread_local int g_span_depth = 0;
}

ScopedTimer::ScopedTimer(const Tracer& tracer, std::string_view name)
{
    if (!tracer.enabled()) return;
    tracer_ = &tracer;
    name_ = name;
    start_ = std::chrono::steady_clock::now();
    depth_ = ++g_span_depth;
}

ScopedTimer::~ScopedTimer()
{
    if (tracer_ == nullptr) return;
    --g_span_depth;
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
    TraceEvent event{"span"};
    event.add("name", FieldValue{std::move(name_)});
    event.add("seconds", FieldValue{seconds});
    event.add("depth", depth_);
    tracer_->emit(std::move(event));
}

}  // namespace nautilus::obs
