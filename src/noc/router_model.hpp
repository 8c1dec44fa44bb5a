#pragma once
// Microarchitectural area/timing model of the virtual-channel router.
//
// Translates a RouterConfig into the resource and timing descriptors
// consumed by the virtual synthesizer.  First-order models follow standard
// VC-router structure (Peh & Dally style): per-VC input buffers, VC and
// switch allocators, crossbar, routing logic, and a 1-3 stage pipeline.
// Constants are calibrated so the full design space reproduces the range of
// the paper's Fig. 1 (~0.4k-25k LUTs, ~60-200 MHz on Virtex-6).

#include "noc/router_params.hpp"
#include "synth/synthesizer.hpp"

namespace nautilus::noc {

// Resource breakdown, useful for reporting and tests.
struct RouterAreaBreakdown {
    synth::Resources buffers;
    synth::Resources vc_allocator;
    synth::Resources sw_allocator;
    synth::Resources crossbar;
    synth::Resources routing;
    synth::Resources output_units;
    synth::Resources pipeline_regs;

    synth::Resources total() const;
};

RouterAreaBreakdown router_area(const RouterConfig& config);

// Logic depth of each pipeline stage under the configured pipelining and
// speculation arrangement: one path per stage, at most four (three stages
// without speculation split VA and SA).
synth::TimingPaths router_paths(const RouterConfig& config);

// Full descriptor for the synthesizer.
synth::DesignDescriptor router_descriptor(const RouterConfig& config);

}  // namespace nautilus::noc
