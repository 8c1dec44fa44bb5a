#pragma once
// Shared float-formatting discipline for every exporter.
//
// The trace writer, the structured log, the Prometheus exposition and the
// /status JSON all serialize doubles; they must agree on the rendering so a
// value can be compared bit-for-bit across surfaces (e.g. /status "best"
// against the trace's run_end "best").  std::to_chars without a precision
// writes the fewest significant digits that still convert back to the same
// double through std::from_chars, so 0.1 is "0.1", not %.17g's
// "0.10000000000000001".

#include <charconv>
#include <cmath>
#include <string>

namespace nautilus::obs {

// Append the shortest round-trip decimal rendering of a finite double:
// fixed or scientific notation, whichever is shorter (fixed on a tie).
inline void append_double(std::string& out, double v)
{
    char buf[32];
    const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, r.ptr);
}

// JSON rendering: non-finite values become null; a plain integer rendering
// gets ".0" appended so parsers can tell doubles from integer fields.  An
// integer of more than 17 digits switches to scientific notation instead,
// as %.17g does, so no rendering is longer than %.17g's.
inline void append_json_double(std::string& out, double v)
{
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    const std::size_t start = out.size();
    append_double(out, v);
    if (out.find_first_of(".e", start) != std::string::npos) return;
    const std::size_t digits = out.size() - start - (out[start] == '-' ? 1 : 0);
    if (digits <= 17) {
        out += ".0";
        return;
    }
    out.resize(start);
    char buf[32];
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof buf, v, std::chars_format::scientific);
    out.append(buf, r.ptr);
}

// JSON array element: as append_json_double but without the ".0".  Every
// array element reads back as a double, so the marker would tell a reader
// nothing, and a column of birth ids stays plain integers.
inline void append_json_element(std::string& out, double v)
{
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    append_double(out, v);
}

}  // namespace nautilus::obs
