// kernels_native: the code the system generates for the four paper
// kernels at a Fig. 5 sweep point (N = 476, Jacobi M = 100), PDAT tile
// for the Octane2 L1 (45). Two legs per kernel, run through
// pipeline::NativeExecutor: the generated sequential program
// (tiledBaseline) and the generated tiled program. Every result is
// compared bit for bit with the hand-written kernels::native *Seq code,
// outside the timed region.
//
// The tiled programs' parallel plans are derived, and their wave tables
// counted, but never run: ThreadPool::parallelForWave notifies its
// stack-allocated latch's condition variable after unlocking it, so the
// caller can return and destroy the latch first, and a parallel run
// then hangs now and then (a standing defect, see CHANGES.md). A
// failure that comes at random would make runs of the same code
// disagree on how many answers failed.
#include <unistd.h>

#include <cmath>
#include <functional>
#include <memory>
#include <set>

#include "codegen/module_cache.h"
#include "codegen/parallel.h"
#include "decompose.h"
#include "interp/compare.h"
#include "interp/interp.h"
#include "kernels/common.h"
#include "kernels/native.h"
#include "pipeline/native_exec.h"
#include "sim/cache.h"
#include "sim/perf.h"
#include "tile/selection.h"
#include "workloads.h"

namespace perfbench {

using namespace fixfuse;

namespace {

/// 2 x 238, a Fig. 5 sweep point. At N = 952 a round took 1.7-3.3 s on
/// the 4-vCPU host this was tuned on, so a run's medians rested on 3-6
/// rounds; at 476 a run has 20-40.
constexpr std::int64_t kN = 476;
constexpr std::int64_t kM = 100;
const char* const kKernels[] = {"lu", "qr", "cholesky", "jacobi"};
enum Leg { kSeq, kTiled, kLegs };
const char* const kLegNames[] = {"seq", "tiled"};

struct Kernel {
  std::string name;
  kernels::KernelBundle b;
  codegen::ParallelPlan plan;
  std::map<std::string, std::int64_t> params;
  kernels::native::Matrix a0;
  kernels::native::Matrix refA, refX;  // hand-written *Seq results
  std::vector<double> secs[kLegs];     // native leg times
};

bool isJacobi(const Kernel& k) { return k.name == "jacobi"; }

const ir::Program& program(const Kernel& k, int leg) {
  return leg == kSeq ? k.b.tiledBaseline : k.b.tiled;
}

/// Input matrix and the hand-written reference for one kernel.
void prepare(Kernel& k, std::uint64_t seed) {
  using namespace kernels::native;
  const std::uint64_t s = 1 + mix(seed, k.name.size() * 131 + k.name[0]) % 1000000;
  if (k.name == "cholesky")
    k.a0 = spdMatrix(kN, s);
  else if (k.name == "qr")
    k.a0 = randomMatrix(kN, s, 0.5, 1.5);
  else
    k.a0 = randomMatrix(kN, s);
  k.refA = k.a0;
  if (k.name == "lu") {
    luSeqFull(k.refA.data(), kN);
  } else if (k.name == "qr") {
    k.refX.assign(matrixSize(kN), 0.0);
    qrSeq(k.refA.data(), k.refX.data(), kN);
  } else if (k.name == "cholesky") {
    cholSeq(k.refA.data(), kN);
  } else {
    Matrix l(matrixSize(kN), 0.0);
    jacobiSeq(k.refA.data(), l.data(), kN, kM);
  }
}

bool matches(const Kernel& k, const interp::Machine& m) {
  if (!interp::bitsEqual(m.array("A").data(), k.refA)) return false;
  return k.refX.empty() || interp::bitsEqual(m.array("X").data(), k.refX);
}

std::function<void(interp::Machine&)> initOf(const Kernel& k) {
  return [&k](interp::Machine& m) { m.array("A").data() = k.a0; };
}

/// What one leg run gave: native seconds, or why it has no answer.
struct LegResult {
  double seconds = 0;
  std::string failure;  // empty when the answer is right
};

std::string what(const Kernel& k, int leg) {
  return "kernel:" + k.name + ":" + kLegNames[leg];
}

/// One leg through the executor, checked against the reference.
LegResult runLeg(const Kernel& k, int leg) {
  pipeline::NativeExecutor exec(/*verify=*/false);
  pipeline::NativeRunReport r;
  const interp::Machine m =
      exec.execute(program(k, leg), k.params, initOf(k), &r);
  LegResult res;
  res.seconds = r.nativeSeconds;
  if (r.backend != "native")
    res.failure = what(k, leg) + ": ran on " + r.backend + " (" + r.reason + ")";
  else if (!matches(k, m))
    res.failure = what(k, leg) + ": wrong answer";
  return res;
}

/// Record a leg's verdict; false when it has no usable time.
bool record(Report& rep, const LegResult& r) {
  rep.attempted(1);
  if (r.failure.empty()) return true;
  rep.failure(r.failure, false);
  return false;
}

/// The run's inputs: the four kernels' input matrices and hand-written
/// reference results.
void prepareInputs(std::uint64_t seed, std::vector<Kernel>& ks) {
  ks.clear();
  for (const char* name : kKernels) {
    Kernel k;
    k.name = name;
    k.params = {{"N", kN}};
    if (isJacobi(k)) k.params["M"] = kM;
    prepare(k, seed);
    ks.push_back(std::move(k));
  }
}

/// The system's set-up: build the kernels through the engine, derive
/// their parallel plans and compile every leg's native module.
void setUp(std::vector<Kernel>& ks) {
  const std::int64_t tile = tile::pdatTileSize(sim::CacheConfig::octane2L1());
  for (Kernel& k : ks) {
    k.b = kernels::buildKernel(k.name, {tile});
    k.plan = codegen::deriveParallelPlan(k.b.tiled,
                                         kernels::kernelContext(isJacobi(k)));
    for (int leg = 0; leg < kLegs; ++leg)
      codegen::processModuleCache().getOrCompile(program(k, leg));
  }
}

double geomean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += std::log(x);
  return v.empty() ? 0 : std::exp(s / static_cast<double>(v.size()));
}

// --- traced ---------------------------------------------------------------------

/// Simulated L2 traffic of the tiled program over the Dinh-Demmel lower
/// bound (8 bytes x flops / sqrt(L2 words)) at N = 200, as the
/// microbench computes it.
double trafficRatio(const Kernel& k) {
  const std::int64_t n = 200;
  std::map<std::string, std::int64_t> params{{"N", n}};
  if (isJacobi(k)) params["M"] = 5;
  interp::Machine m(k.b.tiled, params);
  m.array("A").data() = k.name == "cholesky"
                            ? kernels::native::spdMatrix(n, 1)
                            : kernels::native::randomMatrix(n, 1, 0.5, 1.5);
  const sim::CacheConfig l2 = sim::CacheConfig::octane2L2();
  sim::SimObserver obs(sim::CacheConfig::octane2L1(), l2);
  interp::Interpreter it(k.b.tiled, m, &obs,
                         interp::Interpreter::Dispatch::Batched,
                         interp::Backend::Bytecode);
  it.run();
  const sim::PerfCounts c = obs.counts();
  const double bytes = static_cast<double>(c.l2Misses) * l2.lineBytes;
  const double bound = 8.0 * static_cast<double>(c.flops) /
                       std::sqrt(static_cast<double>(l2.sizeBytes) / 8.0);
  return bound > 0 ? bytes / bound : 0;
}

/// One leg run straight on its compiled module; returns start/end on
/// the steady clock.
struct TracedLeg {
  double t0 = 0, t1 = 0;
  LegResult r;
};

TracedLeg tracedLeg(const Kernel& k, int leg) {
  const ir::Program& p = program(k, leg);
  std::shared_ptr<const codegen::NativeModule> mod =
      codegen::processModuleCache().getOrCompile(p);
  interp::Machine m(p, k.params);
  initOf(k)(m);
  codegen::NativeModule::Binding b = bindMachine(p, m);
  TracedLeg t;
  t.t0 = now();
  mod->run(b);
  t.t1 = now();
  t.r.seconds = t.t1 - t.t0;
  if (!matches(k, m)) t.r.failure = what(k, leg) + ": wrong answer";
  return t;
}

void traced(const Options& o, std::vector<Kernel>& ks, Report& rep) {
  // Untraced reference: one run of every leg through the executor.
  double untraced = 0;
  for (const Kernel& k : ks)
    for (int leg = 0; leg < kLegs; ++leg) {
      const LegResult r = runLeg(k, leg);
      if (record(rep, r)) untraced += r.seconds;
    }

  // Traced: each leg straight on its module, one span per leg (span
  // names live in a static set: the tracer keeps the pointers).
  static std::set<std::string> names;
  Tracer tr;
  std::map<std::string, double> v;
  double parallelTiled = 0, grains = 0;
  std::uint64_t req = 0;
  for (const Kernel& k : ks) {
    for (int leg = 0; leg < kLegs; ++leg) {
      const std::string span = "native." + k.name + "." + kLegNames[leg];
      tr.setRequest(++req);
      const TracedLeg t = tracedLeg(k, leg);
      if (!record(rep, t.r)) continue;
      tr.record(names.insert(span).first->c_str(), t.t0, t.t1);
      if (leg == kTiled && k.plan.legal()) parallelTiled += t.r.seconds;
    }
    // The schedule a parallel run would follow, from the plan alone.
    if (k.plan.legal()) {
      const codegen::WaveTable wt =
          codegen::computeWaveTable(k.b.tiled, k.plan, k.params);
      v["parallel." + k.name + ".waves"] = static_cast<double>(wt.waveCount());
      v["parallel." + k.name + ".grains"] = static_cast<double>(wt.rowCount());
      grains += static_cast<double>(wt.rowCount());
    }
    v["sim." + k.name + ".traffic_ratio"] = trafficRatio(k);
  }
  for (const auto& [name, x] : layerValues(tr, 1)) v[name] = x;
  if (grains > 0) v["parallel.grain_us"] = parallelTiled / grains * 1e6;
  reportTraced(o, rep, v, untraced, &tr);
}

}  // namespace

void kernelsNative(const Options& o, Report& rep) {
  std::vector<Kernel> ks;
  double t0 = now();
  prepareInputs(o.seed, ks);
  const double inputs = now() - t0;
  if (o.trace) {
    setUp(ks);
    traced(o, ks, rep);
    return;
  }
  // setup_s: inputs (once) plus the median of kSetupReps system
  // set-ups, all but the last in forked children (fresh processes).
  std::vector<double> reps;
  double childRss = 0;
  for (int r = 0; r + 1 < kSetupReps; ++r) {
    const auto w = splitWords(inChild([&] {
      std::vector<Kernel> tmp = ks;
      const double a = now();
      setUp(tmp);
      const double dt = now() - a;
      return num(dt) + " " + num(peakRssMb());
    }));
    reps.push_back(std::stod(w.at(0)));
    childRss = std::max(childRss, std::stod(w.at(1)));
  }
  t0 = now();
  setUp(ks);
  reps.push_back(now() - t0);
  const double setup = inputs + median(reps);
  char note[160];
  std::snprintf(note, sizeof(note),
                "inputs %.3f s + median of %zu set-ups %.3f s", inputs,
                reps.size(), median(reps));
  rep.line("setup_s", setup, "s", note);
  rep.metric("setup_s", setup, "s");

  // Closed loop: one caller runs every leg of every kernel, kernels in
  // a seeded order per round, until the window closes.
  std::vector<double> roundSecs, roundRps;
  std::size_t calls = 0;
  const double start = now();
  int rounds = 0;
  while (now() - start < o.seconds) {
    const auto order = shuffled(ks.size(), mix(o.seed, 77 + rounds));
    const double r0 = now();
    std::size_t n = 0;
    for (std::size_t ki : order) {
      for (int leg : {kSeq, kTiled}) {
        const LegResult r = runLeg(ks[ki], leg);
        if (record(rep, r)) ks[ki].secs[leg].push_back(r.seconds);
        ++n;
      }
    }
    const double dt = now() - r0;
    roundSecs.push_back(dt);
    roundRps.push_back(static_cast<double>(n) / dt);
    calls += n;
    ++rounds;
  }

  rep.text("kernels_native: N=" + std::to_string(kN) + ", Jacobi M=" +
           std::to_string(kM) + ", tile " +
           std::to_string(tile::pdatTileSize(sim::CacheConfig::octane2L1())) +
           ", " + std::to_string(rounds) + " rounds; medians of native leg times");
  std::printf("  %-9s %10s %10s %9s  %s\n", "kernel", "seq[s]", "tiled[s]",
              "seq/til", "parallel plan (not run)");
  double tiledSum = 0;
  std::vector<double> tiledRatios;
  for (Kernel& k : ks) {
    const double s = median(k.secs[kSeq]), t = median(k.secs[kTiled]);
    tiledSum += t;
    tiledRatios.push_back(s / t);
    std::printf("  %-9s %10.4f %10.4f %9.3f  %s\n", k.name.c_str(), s, t,
                s / t, k.plan.str().c_str());
  }

  rep.line("kernel_tiled_s", tiledSum, "s", "sum of the four median tiled times");
  rep.line("tiled_speedup", geomean(tiledRatios), "x",
           "geomean of generated seq / generated tiled (Fig. 5)");
  // A request here is one round: the seq and tiled legs of every kernel.
  const double rps = median(roundRps);
  const double p50 = median(roundSecs) * 1e3;
  rep.line("throughput_rps", rps, "1/s",
           "NativeExecutor::execute calls per second, median over rounds");
  rep.line("latency_p50_ms", p50, "ms",
           "median round (" + std::to_string(calls / std::max(rounds, 1)) +
               " seq and tiled execute() calls), n=" + std::to_string(rounds));
  const double rss = std::max(peakRssMb(), childRss);
  rep.line("peak_rss_mb", rss, "MB");
  rep.metric("throughput_rps", rps, "1/s");
  rep.metric("latency_p50_ms", p50, "ms");
  rep.metric("peak_rss_mb", rss, "MB");
}

}  // namespace perfbench
