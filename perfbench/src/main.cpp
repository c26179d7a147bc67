// perfbench: the fixfuse benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --workdir DIR [--trace-out FILE]
//
// Workloads: compile_cold, serve_warm, serve_churn, kernels_native
// (see perfbench/METRICS.md). Prints result lines, provenance, and as
// the last line one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics untraced, the per-layer metrics with --trace 1.
// DIR holds sockets, the persistent-tier directory and compiler scratch
// space; it must be short enough for an AF_UNIX socket path.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "codegen/native_module.h"
#include "harness.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

/// Variables that skip checks or change what is measured. The benchmark
/// sets what it needs itself; inherited values are refused.
const char* const kRefusedEnv[] = {
    "FIXFUSE_NATIVE_VERIFY", "FIXFUSE_PARALLEL", "FIXFUSE_PARALLEL_THRESHOLD",
    "FIXFUSE_INTERP",        "FIXFUSE_CACHE_DIR", "FIXFUSE_ENGINE_CACHE",
    "FIXFUSE_CC",            "FIXFUSE_CFLAGS",
};

/// Total and stolen CPU ticks of the host so far (/proc/stat), to say
/// how much of the machine a hypervisor took away during the run.
std::pair<double, double> cpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v = 0, total = 0, steal = 0;
  in >> cpu;
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {total, steal};
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload compile_cold|serve_warm|"
               "serve_churn|kernels_native --seed N --seconds S --trace 0|1 "
               "--workdir DIR [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload")
      o.workload = v;
    else if (k == "--seed")
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds")
      o.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace")
      o.trace = v == "1";
    else if (k == "--workdir")
      o.workDir = v;
    else if (k == "--trace-out")
      o.traceOut = v;
    else
      return usage();
  }
  if (argc % 2 == 0 || o.workload.empty() || o.workDir.empty() ||
      !(o.seconds > 0))
    return usage();
  for (const char* var : kRefusedEnv) {
    if (std::getenv(var)) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set in the "
                   "environment (it skips checks or changes what is "
                   "measured)\n",
                   var);
      return 2;
    }
  }

  perfbench::Report rep;
  const auto ticks0 = cpuTicks();
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  try {
    if (o.workload == "compile_cold")
      perfbench::compileCold(o, rep);
    else if (o.workload == "serve_warm")
      perfbench::serveWarm(o, rep);
    else if (o.workload == "serve_churn")
      perfbench::serveChurn(o, rep);
    else if (o.workload == "kernels_native")
      perfbench::kernelsNative(o, rep);
    else
      return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  const auto ticks1 = cpuTicks();
  const double ticks = ticks1.first - ticks0.first;
  std::printf("provenance: host compiler \"%s\"; nproc %u; build %s; seed %llu; "
              "CPU time stolen by the hypervisor during the run %.1f%%\n",
              fixfuse::codegen::hostCompilerId().c_str(),
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              static_cast<unsigned long long>(o.seed),
              ticks > 0 ? 100.0 * (ticks1.second - ticks0.second) / ticks : 0.0);
  rep.finish();
  return 0;
}
