#include "obs/trace_reader.hpp"

#include <cstdio>

namespace nautilus::obs {

TraceReader::TraceReader(std::string path) : path_(std::move(path)), in_(path_) {}

bool TraceReader::next()
{
    std::string text;
    while (std::getline(in_, text)) {
        ++line_;
        if (text.empty()) continue;
        ++lines_;
        event_ = parse_jsonl_line(text);
        if (event_) return true;
        ++parse_errors_;
        std::fprintf(stderr, "%s:%zu: unparseable trace line\n", path_.c_str(), line_);
    }
    return false;
}

}  // namespace nautilus::obs
