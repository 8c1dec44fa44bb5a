#pragma once
// Reading a JSONL trace back, one event at a time: the loop every trace tool
// (trace_inspect, trace_diff, lineage_report) shares.
//
// Blank lines are skipped.  A line parse_jsonl_line() rejects is never
// dropped silently: it is reported on stderr as "PATH:LINE: unparseable
// trace line: REASON at byte N" (the reason from obs/json's reader) and
// counted, so each tool can refuse a corrupt trace.

#include <cstddef>
#include <fstream>
#include <optional>
#include <string>

#include "obs/trace.hpp"

namespace nautilus::obs {

class TraceReader {
public:
    explicit TraceReader(std::string path);

    // False when the file could not be opened.
    bool is_open() const { return in_.is_open(); }
    const std::string& path() const { return path_; }

    // Advance to the next parseable event; false at end of file.
    bool next();

    // The current event and its 1-based line number (valid after next()
    // returned true).
    const TraceEvent& event() const { return *event_; }
    std::size_t line() const { return line_; }

    std::size_t lines() const { return lines_; }               // non-blank lines read
    std::size_t parse_errors() const { return parse_errors_; } // unparseable lines

private:
    std::string path_;
    std::ifstream in_;
    std::optional<TraceEvent> event_;
    std::size_t line_ = 0;
    std::size_t lines_ = 0;
    std::size_t parse_errors_ = 0;
};

}  // namespace nautilus::obs
