#pragma once
// The three workloads and the isolated per-layer micro pass.

#include <string>

#include "bench.hpp"

namespace perfbench {

// Isolated per-op costs, keyed by per-layer metric name.  Every traced run
// measures them, so each per-layer metric has a value on every workload; a
// workload that exercises a layer overwrites the layer's run-dependent
// entries (shares, ratios, queue waits) with what its own run measured.
Values measure_micro(const Options& opt);

// The micro pass's job session: eight short GA jobs POSTed back to back to a
// 4-slot server, plus isolated HTTP routing and spec parsing costs.  Files
// go under `dir`.
Values measure_serve_micro(const Options& opt, const std::string& dir);

RunOutput run_query_router_model(const Options& opt);
RunOutput run_figures_dataset(const Options& opt);
RunOutput run_serve_mixed(const Options& opt);

}  // namespace perfbench
