#pragma once
// Numeric flag values for the command-line tools.  std::stoull/std::stod
// throw on garbage and silently accept partial matches ("--seed 1e99"
// parses as 1); either way the user typed something that is not the number
// they meant.  FlagParser demands that the whole token parse.  On failure it
// prints "PREFIXinvalid value 'TEXT' for FLAG (expected ...)" and calls the
// tool's usage(), which exits 2, instead of letting an exception escape to
// std::terminate.

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

namespace nautilus::tools {

struct FlagParser {
    const char* argv0;
    void (*usage)(const char* argv0);  // prints the usage text and exits 2
    const char* prefix = "";           // e.g. "trace_diff: "

    std::uint64_t u64(const std::string& flag, const char* text) const
    {
        try {
            if (std::isdigit(static_cast<unsigned char>(text[0])) != 0) {
                std::size_t used = 0;
                const unsigned long long v = std::stoull(text, &used);
                if (used == std::strlen(text)) return v;
            }
        }
        catch (const std::exception&) {
        }
        fail(flag, text, "a non-negative integer");
    }

    double number(const std::string& flag, const char* text) const
    {
        try {
            std::size_t used = 0;
            const double v = std::stod(text, &used);
            if (used == std::strlen(text) && std::isfinite(v)) return v;
        }
        catch (const std::exception&) {
        }
        fail(flag, text, "a finite number");
    }

private:
    [[noreturn]] void fail(const std::string& flag, const char* text, const char* expected) const
    {
        std::fprintf(stderr, "%sinvalid value '%s' for %s (expected %s)\n", prefix, text,
                     flag.c_str(), expected);
        usage(argv0);
        std::exit(2);
    }
};

}  // namespace nautilus::tools
