#include "fft/fft_model.hpp"

#include <cmath>
#include <stdexcept>

namespace nautilus::fft {

namespace {

double log2d(double x)
{
    return std::log2(std::max(x, 1.0));
}

// One streaming buffer (or ROM) this large or larger maps to block RAM.
constexpr double k_bram_threshold_bits = 16384.0;

void charge_memory(synth::Resources& r, double block_bits, double blocks)
{
    if (block_bits >= k_bram_threshold_bits)
        r.bram_bits += block_bits * blocks;
    else
        r.lutram_bits += block_bits * blocks;
}

}  // namespace

synth::Resources FftAreaBreakdown::total() const
{
    return butterflies + multipliers + permutation + twiddle_rom + scaling + control;
}

bool uses_dsp(const FftConfig& config, const synth::FpgaTech& tech)
{
    return config.data_width <= tech.dsp_width && config.twiddle_width <= tech.dsp_width;
}

FftAreaBreakdown fft_area(const FftConfig& c, const synth::FpgaTech& tech)
{
    if (!c.feasible()) throw std::invalid_argument("fft_area: infeasible configuration");
    const double s = c.stages();
    const double b = c.butterflies_per_stage();
    const double r = c.radix;
    const double w = c.streaming_width;
    const double dw = c.data_width;
    const double tw = c.twiddle_width;
    const double n = c.n();

    FftAreaBreakdown a;

    // Butterfly adder trees: a radix-r butterfly performs r*log2(r) complex
    // additions = 2*r*log2(r) real adders of dw bits (~0.85 LUT per bit
    // after carry-chain packing).
    const double real_adds = 2.0 * r * c.log2_radix();
    a.butterflies.luts = s * b * real_adds * dw * 0.85;
    a.butterflies.ffs = s * b * r * 2.0 * dw;  // inter-stage registers

    // Twiddle multipliers: (r-1) complex multiplies per butterfly, skipping
    // the first (trivial-twiddle) stage.
    const double mults = std::max(s - 1.0, 0.0) * b * (r - 1.0);
    if (uses_dsp(c, tech)) {
        a.multipliers.dsps = mults * 3.0;  // 3-mult complex multiply
        a.multipliers.luts = mults * (10.0 + dw * 0.75);  // glue + post-adders
    }
    else {
        a.multipliers.luts = mults * (dw * tw * 0.9 + 5.0 * dw);
    }
    a.multipliers.ffs = mults * 2.0 * dw;

    // Inter-stage streaming permutation: ping-pong shared buffers holding n
    // complex samples per stage boundary.
    const double perm_block_bits = n * 2.0 * dw / 2.0;
    charge_memory(a.permutation, perm_block_bits, s);
    a.permutation.luts = s * (4.0 + log2d(n / w));  // address generators

    // Twiddle ROMs: n/2 coefficients of 2*tw bits per multiplier stage.
    if (mults > 0.0) {
        const double rom_block_bits = (n / 2.0) * 2.0 * tw;
        charge_memory(a.twiddle_rom, rom_block_bits, s - 1.0);
        a.twiddle_rom.luts = (s - 1.0) * 3.0;
    }

    // Scaling datapath.
    switch (c.scaling) {
    case ScalingMode::none: break;
    case ScalingMode::per_stage: a.scaling.luts = s * w * dw * 0.15; break;
    case ScalingMode::block_fp:
        a.scaling.luts = s * w * dw * 0.3 + 60.0;
        a.scaling.ffs = s * 8.0;
        break;
    }

    // Global control: stage sequencing and stream framing.
    a.control.luts = 40.0 + s * 6.0 + w * 2.0;
    a.control.ffs = 30.0 + s * 5.0;
    return a;
}

synth::TimingPaths fft_paths(const FftConfig& c, const synth::FpgaTech& tech)
{
    if (!c.feasible()) throw std::invalid_argument("fft_paths: infeasible configuration");
    const double dw = c.data_width;
    const double tw = c.twiddle_width;

    // Butterfly + multiplier path.
    double bf_levels = 2.2 + 0.8 * c.log2_radix() + dw / 14.0;
    bf_levels += uses_dsp(c, tech) ? 1.4 : 2.0 + (dw + tw) / 14.0;
    switch (c.scaling) {
    case ScalingMode::none: break;
    case ScalingMode::per_stage: bf_levels += 0.3; break;
    case ScalingMode::block_fp: bf_levels += 0.9; break;
    }

    // Streaming-buffer addressing path.
    const double mem_levels =
        1.5 + 0.3 * log2d(static_cast<double>(c.n()) / c.streaming_width);

    return {
        {"butterfly", bf_levels, static_cast<double>(c.streaming_width) / 4.0},
        {"stream_mem", mem_levels, 4.0},
    };
}

synth::DesignDescriptor fft_descriptor(const FftConfig& c, const synth::FpgaTech& tech)
{
    synth::DesignDescriptor d;
    d.config_key = c.config_key();
    d.resources = fft_area(c, tech).total();
    d.paths = fft_paths(c, tech);
    d.toggle_rate = 0.25;
    return d;
}

double fft_throughput_msps(const FftConfig& c, double fmax_mhz)
{
    return fmax_mhz * static_cast<double>(c.streaming_width);
}

}  // namespace nautilus::fft
