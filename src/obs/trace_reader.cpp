#include "obs/trace_reader.hpp"

#include <cstdio>

#include "obs/json.hpp"

namespace nautilus::obs {

TraceReader::TraceReader(std::string path) : path_(std::move(path)), in_(path_) {}

bool TraceReader::next()
{
    std::string text;
    while (std::getline(in_, text)) {
        ++line_;
        if (text.empty()) continue;
        ++lines_;
        JsonError why;
        event_ = parse_jsonl_line(text, &why);
        if (event_) return true;
        ++parse_errors_;
        std::fprintf(stderr, "%s:%zu: unparseable trace line: %s\n", path_.c_str(), line_,
                     why.describe().c_str());
    }
    return false;
}

}  // namespace nautilus::obs
