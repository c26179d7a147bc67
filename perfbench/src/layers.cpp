#include <unistd.h>

#include <cstdio>
#include <vector>

#include "workloads.h"

namespace perfbench {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Keep in step with "per_layer" in BENCHMARK.json. Times are self
// times summed over one traced pass of the workload's traffic (a corpus
// replay, or one run of each kernel leg); counts are per pass too.
const std::vector<LayerMetric> kLayerMetrics = {
    {"ir.parse_s", "s"},
    {"ir.fingerprint_s", "s"},
    {"planner.plan_s", "s"},
    {"pipeline.passes_s", "s"},
    {"tile.passes_s", "s"},
    {"pipeline.dep_queries", "count"},
    {"pipeline.dep_cache_hit_ratio", "ratio"},
    {"pipeline.fm_eliminations", "count"},
    {"pipeline.emptiness_checks", "count"},
    {"codegen.parallel_plan_s", "s"},
    {"codegen.parallel_pairs_total", "count"},
    {"codegen.emitc_s", "s"},
    {"codegen.emitc_bytes", "bytes"},
    {"codegen.native_build_s", "s"},
    {"codegen.host_compiles", "count"},
    {"engine.compile_hit_s", "s"},
    {"engine.module_lookup_s", "s"},
    {"server.handle_s", "s"},
    {"server.transport_s", "s"},
    {"server.digest_s", "s"},
    {"interp.init_s", "s"},
    {"interp.reference_s", "s"},
    {"interp.compare_s", "s"},
    {"native.run_s", "s"},
    {"interp.verify_to_native", "ratio"},
    {"engine.plan_hits", "count"},
    {"engine.plan_misses", "count"},
    {"engine.plan_evictions", "count"},
    {"engine.module_hits", "count"},
    {"engine.module_misses", "count"},
    {"disk.stores", "count"},
    {"disk.hits", "count"},
    {"disk.corrupt", "count"},
    {"native.lu.seq_s", "s"},
    {"native.lu.tiled_s", "s"},
    {"native.qr.seq_s", "s"},
    {"native.qr.tiled_s", "s"},
    {"native.cholesky.seq_s", "s"},
    {"native.cholesky.tiled_s", "s"},
    {"native.jacobi.seq_s", "s"},
    {"native.jacobi.tiled_s", "s"},
    {"sim.lu.traffic_ratio", "ratio"},
    {"sim.qr.traffic_ratio", "ratio"},
    {"sim.cholesky.traffic_ratio", "ratio"},
    {"sim.jacobi.traffic_ratio", "ratio"},
    {"parallel.cholesky.waves", "count"},
    {"parallel.cholesky.grains", "count"},
    {"parallel.jacobi.waves", "count"},
    {"parallel.jacobi.grains", "count"},
    {"parallel.grain_us", "us"},
    {"trace.traced_s", "s"},
    {"trace.untraced_s", "s"},
    {"trace.overhead_s", "s"},
};

}  // namespace

void reportTraced(const Options& opts, Report& rep,
                  std::map<std::string, double> values, double untraced,
                  const Tracer* tr) {
  values["trace.untraced_s"] = untraced;
  values["trace.overhead_s"] = values["trace.traced_s"] - untraced;
  if (tr && !opts.traceOut.empty())
    tr->write(opts.traceOut, static_cast<int>(::getpid()));
  if (!opts.traceOut.empty()) rep.text("trace written to " + opts.traceOut);
  rep.text("traced pass " + num(values["trace.traced_s"]) + " s, untraced " +
           num(untraced) + " s, tracing overhead " +
           num(values["trace.overhead_s"]) + " s");
  std::printf("per-layer (self times per traced pass):\n");
  for (const LayerMetric& m : kLayerMetrics) {
    auto it = values.find(m.name);
    const double v = it == values.end() ? 0.0 : it->second;
    if (it != values.end()) rep.line(m.name, v, m.unit);
    rep.metric(m.name, v, m.unit);
  }
}

}  // namespace perfbench
