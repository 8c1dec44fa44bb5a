#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> samples, double q)
{
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xffu;
        h_ *= 0x100000001b3ull;
    }
}

void Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
}

void SpanLog::write(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write span log " + path);
    std::fputs("name,id,parent,start_s,end_s,wave_s,waves,model_s,model_calls\n", f);
    for (const Span& s : spans_)
        std::fprintf(f, "%s,%llu,%llu,%.9f,%.9f,%.9f,%llu,%.9f,%llu\n", s.name,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent), s.start_s, s.end_s, s.wave_s,
                     static_cast<unsigned long long>(s.waves), s.model_s,
                     static_cast<unsigned long long>(s.model_calls));
    if (std::fclose(f) != 0) throw std::runtime_error("cannot write span log " + path);
}

void RunOutput::fail(const std::string& what, std::size_t attempts)
{
    // Keep the report readable when a defect fails thousands of items.
    if (failed < 20) notes.push_back("FAILED: " + what);
    failed += attempts;
}

std::string format(const char* fmt, ...)
{
    char buf[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    return buf;
}

}  // namespace perfbench
