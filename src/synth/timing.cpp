#include "synth/timing.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nautilus::synth {

TimingPaths::TimingPaths(std::initializer_list<TimingPath> paths)
{
    for (const TimingPath& p : paths) push_back(p);
}

void TimingPaths::push_back(const TimingPath& path)
{
    if (size_ == capacity) throw std::length_error("TimingPaths: more than capacity paths");
    paths_[size_++] = path;
}

double path_delay_ns(const TimingPath& path, const FpgaTech& tech)
{
    if (path.logic_levels < 0.0)
        throw std::invalid_argument("path_delay_ns: negative logic levels");
    const double fanout_penalty = 1.0 + 0.08 * std::log2(std::max(path.fanout, 1.0));
    return tech.ff_setup_ns +
           path.logic_levels * tech.lut_delay_ns * tech.routing_overhead * fanout_penalty;
}

double critical_path_ns(std::span<const TimingPath> paths, const FpgaTech& tech)
{
    if (paths.empty()) throw std::invalid_argument("critical_path_ns: no paths");
    double worst = 0.0;
    for (const TimingPath& p : paths) worst = std::max(worst, path_delay_ns(p, tech));
    return worst;
}

double fmax_mhz(std::span<const TimingPath> paths, const FpgaTech& tech)
{
    const double period = critical_path_ns(paths, tech);
    return std::min(1000.0 / period, tech.max_freq_mhz);
}

}  // namespace nautilus::synth
