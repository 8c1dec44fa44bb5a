#pragma once
// Static timing model: logic depth + fanout -> path delay -> fmax.

#include <array>
#include <cstddef>
#include <initializer_list>
#include <span>

#include "synth/tech.hpp"

namespace nautilus::synth {

// One register-to-register path, described by its logic depth.
struct TimingPath {
    const char* name = "";      // static label, for reports and tests
    double logic_levels = 1.0;  // LUT levels between registers
    double fanout = 4.0;        // representative net fanout along the path
};

// The paths of one design, stored inline: an IP model describes at most
// `capacity` pipeline stages, so describing a design allocates nothing.
class TimingPaths {
public:
    static constexpr std::size_t capacity = 4;

    TimingPaths() = default;
    // Throws std::length_error beyond `capacity` paths.
    TimingPaths(std::initializer_list<TimingPath> paths);

    void push_back(const TimingPath& path);  // throws std::length_error when full
    void clear() { size_ = 0; }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const TimingPath* data() const { return paths_.data(); }
    const TimingPath* begin() const { return paths_.data(); }
    const TimingPath* end() const { return paths_.data() + size_; }

private:
    std::array<TimingPath, capacity> paths_{};
    std::size_t size_ = 0;
};

// Delay of one path: logic levels x (LUT + routing), with a logarithmic
// fanout penalty, plus register overhead.
double path_delay_ns(const TimingPath& path, const FpgaTech& tech);

// Slowest path; throws on an empty set.
double critical_path_ns(std::span<const TimingPath> paths, const FpgaTech& tech);

// Clock frequency implied by the critical path, capped by the technology.
double fmax_mhz(std::span<const TimingPath> paths, const FpgaTech& tech);

}  // namespace nautilus::synth
