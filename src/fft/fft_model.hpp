#pragma once
// Streaming-FFT datapath area/timing model.
//
// Maps an FftConfig onto the resource and timing descriptors of a fully
// streamed Pease-style FFT: `stages()` columns of `butterflies_per_stage()`
// radix-r butterflies, twiddle multipliers, inter-stage streaming
// permutation memories, twiddle ROMs and the scaling datapath.  Constants
// are calibrated against the ranges visible in the paper's Figs. 6 and 7
// (minimum ~540 LUTs; peak throughput efficiency ~1.5-1.7 MSPS/LUT).

#include "fft/fft_params.hpp"
#include "synth/synthesizer.hpp"

namespace nautilus::fft {

struct FftAreaBreakdown {
    synth::Resources butterflies;   // adder trees
    synth::Resources multipliers;   // twiddle multipliers (DSP or LUT)
    synth::Resources permutation;   // inter-stage streaming buffers
    synth::Resources twiddle_rom;
    synth::Resources scaling;
    synth::Resources control;

    synth::Resources total() const;
};

// True when the twiddle multipliers fit the hard DSP blocks.
bool uses_dsp(const FftConfig& config, const synth::FpgaTech& tech);

FftAreaBreakdown fft_area(const FftConfig& config, const synth::FpgaTech& tech);

// The butterfly and streaming-memory paths.
synth::TimingPaths fft_paths(const FftConfig& config, const synth::FpgaTech& tech);

synth::DesignDescriptor fft_descriptor(const FftConfig& config,
                                       const synth::FpgaTech& tech);

// Steady-state throughput in million (complex) samples per second at `fmax`:
// a fully streaming pipeline accepts streaming_width samples per cycle.
double fft_throughput_msps(const FftConfig& config, double fmax_mhz);

}  // namespace nautilus::fft
