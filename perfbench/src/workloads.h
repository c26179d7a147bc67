// The four workloads. Each runs its set-up, measures for opts.seconds and
// fills the report: end-to-end metrics untraced, per-layer metrics (all
// of kLayerMetrics, zero where the workload does not reach the layer)
// when opts.trace is set.
#pragma once

#include <map>
#include <string>

#include "harness.h"

namespace perfbench {

void compileCold(const Options& opts, Report& rep);
void serveWarm(const Options& opts, Report& rep);
void serveChurn(const Options& opts, Report& rep);
void kernelsNative(const Options& opts, Report& rep);

/// Finish a traced run: add the untraced time of the same traffic and
/// the tracing overhead to `values`, write `tr`'s spans to opts.traceOut
/// (null when a child process wrote them), and print every layer metric
/// of BENCHMARK.json's per_layer list (0 where `values` has none).
void reportTraced(const Options& opts, Report& rep,
                  std::map<std::string, double> values, double untraced,
                  const Tracer* tr);

/// Set-up is repeated this many times per run and setup_s is the
/// median: kernels_native sets up in forked children and once more in
/// the measuring process; serve_* measure in as many forked processes,
/// each set up on its own.
inline constexpr int kSetupReps = 3;

}  // namespace perfbench
