#pragma once
// The virtual synthesizer: resource/timing descriptors -> synthesis results.
//
// Stands in for the EDA runs the paper performed offline (XST 14.7 on a
// 200+ core cluster for ~2 weeks).  Results are deterministic per design:
// the pseudo-random implementation variation (placement/routing luck) is a
// pure hash of the design's configuration key, so a design costs the same
// whether it is "synthesized" live or looked up from a prebuilt dataset.

#include <cstdint>

#include "synth/resources.hpp"
#include "synth/tech.hpp"
#include "synth/timing.hpp"

namespace nautilus::synth {

// Everything a synthesis job needs to know about one design.  Plain inline
// data: describing and synthesizing a design performs no heap allocation.
struct DesignDescriptor {
    std::uint64_t config_key = 0;  // seeds the deterministic noise
    Resources resources;
    TimingPaths paths;
    double toggle_rate = 0.15;  // average switching activity (power model)
};

struct SynthResult {
    // FPGA view
    double luts = 0.0;  // equivalent LUTs (logic + LUT-RAM)
    double ffs = 0.0;
    double brams = 0.0;
    double dsps = 0.0;
    // Timing
    double fmax_mhz = 0.0;
    double period_ns = 0.0;
    // ASIC view (zero unless produced by AsicSynthesizer)
    double area_mm2 = 0.0;
    double power_mw = 0.0;
};

// Deterministic multiplicative noise factor in [1-amplitude, 1+amplitude]
// derived from (key, salt).
double noise_factor(std::uint64_t key, std::uint64_t salt, double amplitude);

// FPGA synthesis.
class VirtualSynthesizer {
public:
    explicit VirtualSynthesizer(FpgaTech tech, double area_noise = 0.03,
                                double timing_noise = 0.05);

    const FpgaTech& tech() const { return tech_; }

    SynthResult synthesize(const DesignDescriptor& design) const;

private:
    FpgaTech tech_;
    double area_noise_;
    double timing_noise_;
};

// ASIC synthesis: maps the same descriptors through gate-level conversion
// and adds area/power estimates (used for the Fig. 2 CONNECT study).
class AsicSynthesizer {
public:
    explicit AsicSynthesizer(AsicTech tech, double area_noise = 0.03,
                             double timing_noise = 0.05);

    const AsicTech& tech() const { return tech_; }

    // `wire_bit_mm` is the total channel wiring (bits x millimeters) outside
    // the logic blocks; it contributes area and dynamic power.
    SynthResult synthesize(const DesignDescriptor& design, double wire_bit_mm = 0.0) const;

private:
    AsicTech tech_;
    double area_noise_;
    double timing_noise_;
};

}  // namespace nautilus::synth
