#pragma once
// The one JSON codec: the string escaper every JSON writer uses, and a strict
// reader for the flat objects read back -- JSONL trace and log lines, job
// specs and bench artifacts.  The accepted grammar is RFC 8259 limited to
// one object of strings, numbers, true/false/null and arrays of numbers and
// nulls; DESIGN.md section 7 spells it out.

#include <charconv>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

namespace nautilus::obs {

// Append `s` as a JSON string literal, quotes included.  `"`, `\`, LF, TAB
// and CR get their short escapes; every other byte below 0x20 becomes
// \u00XX; all other bytes (UTF-8 sequences included) pass through.
void append_json_string(std::string& out, std::string_view s);

// One value of a flat object.
struct JsonValue {
    enum class Kind { string, number, boolean, null, array };
    Kind kind = Kind::null;
    std::string text;             // string: decoded; number: the source token
    bool truth = false;           // boolean
    std::vector<double> numbers;  // array: elements in order, null as NaN
    std::size_t offset = 0;       // byte offset of the value in the input
};

struct JsonError {
    std::string reason;
    std::size_t offset = 0;

    // "<reason> at byte <offset>"
    std::string describe() const;
};

struct FlatObject {
    std::vector<std::pair<std::string, JsonValue>> fields;  // source order, unique keys
    std::optional<JsonError> error;                         // set when the input is rejected

    // The value under `key`, or null when absent.
    const JsonValue* find(std::string_view key) const;
};

// Read exactly one flat object.  Whitespace is space, tab, LF and CR; numbers
// follow RFC 8259; strings reject raw bytes below 0x20 and take the escapes
// \" \\ \/ \b \f \n \r \t, plus \u below 0x80; duplicate keys and trailing
// content are errors.
FlatObject parse_flat_object(std::string_view text);

// Convert a number token (JsonValue::text) to T with std::from_chars.  False
// unless the whole token is consumed and the value is in range for T.
template <class T>
bool from_json_number(std::string_view token, T& out)
{
    const char* const end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, out);
    return ec == std::errc{} && ptr == end;
}

}  // namespace nautilus::obs
