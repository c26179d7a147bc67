#include "decompose.h"

#include <optional>

#include "codegen/emit_c.h"
#include "codegen/module_cache.h"
#include "codegen/parallel.h"
#include "interp/compare.h"
#include "interp/interp.h"
#include "ir/fingerprint.h"
#include "ir/parse.h"
#include "ir/printer.h"
#include "pipeline/manager.h"
#include "pipeline/pass.h"
#include "planner/planner.h"

namespace perfbench {

using namespace fixfuse;

namespace {

/// The planned tiling as passes, as Engine::compile adds them.
void addTilingPasses(pipeline::PassManager& pm, const planner::TilePlan& tp,
                     std::int64_t tile) {
  using Kind = planner::TilePlan::Kind;
  switch (tp.kind) {
    case Kind::StripMineOuter:
      pm.add(pipeline::stripMineAndSinkPass(tp.stripVar, tile, 1));
      return;
    case Kind::Rectangular:
      pm.add(pipeline::tileRectangularPass(
          std::vector<std::int64_t>(tp.rectDims, tile)));
      return;
    case Kind::SkewAndTile:
      pm.add(pipeline::unimodularTransformPass(tp.skew, tp.skewVars))
          .add(pipeline::tileRectangularPass(
              std::vector<std::int64_t>(tp.skewVars.size(), tile)));
      return;
    case Kind::None:
      return;
  }
}

void addStats(std::map<std::string, double>& c,
              const pipeline::PipelineStats& st) {
  for (const pipeline::PassStats& ps : st.passes) {
    c["pipeline.dep_queries"] += static_cast<double>(ps.depQueries);
    c["dep_cache_hits"] += static_cast<double>(ps.depCacheHits);
    c["pipeline.fm_eliminations"] += static_cast<double>(ps.fmEliminations);
    c["pipeline.emptiness_checks"] += static_cast<double>(ps.emptinessChecks);
  }
}

}  // namespace

codegen::NativeModule::Binding bindMachine(const ir::Program& p,
                                           interp::Machine& m) {
  codegen::NativeModule::Binding b;
  for (const auto& prm : p.params) b.params.push_back(m.params().at(prm));
  for (const auto& a : p.arrays)
    b.arrays.push_back(m.array(a.name).data().data());
  for (const auto& s : p.scalars) {
    if (s.type == ir::Type::Int)
      b.intScalars.push_back(m.intScalarSlot(s.name));
    else
      b.floatScalars.push_back(m.floatScalarSlot(s.name));
  }
  return b;
}

void Decomposer::transport(const server::Request& req) {
  if (!transport_) return;
  Tracer::Scope s(tr_, "server.transport");
  server::Request ping = req;
  ping.verb = "ping";
  transport_->call(ping);
}

void Decomposer::compile(const Job& job, bool cold) {
  const server::CorpusEntry& e = job.entry;
  const server::Request req = e.compileRequest();
  tr_.setRequest(++req_);
  ir::Program p;
  poly::ParamContext ctx;
  engine::CompileOptions co;
  ir::Program tiled;
  codegen::ParallelPlan par;
  {
    Tracer::Scope root(tr_, "request.compile");
    transport(req);
    {
      Tracer::Scope s(tr_, "ir.parse");
      p = ir::parseProgram(req.body);
    }
    {
      Tracer::Scope s(tr_, "server.handle");
      ctx = ctxOf(e, p);
      co.tile = e.tile;
    }
    {
      Tracer::Scope s(tr_, "ir.fingerprint");
      (void)ir::fingerprint(p);
    }
    if (!cold) {
      Tracer::Scope s(tr_, "engine.compile_hit");
      if (!eng_.compile(p, ctx, co).cacheHit())
        mismatches.push_back(e.name + ": compile expected to hit the plan cache");
      return;
    }
    planner::Plan plan;
    {
      Tracer::Scope s(tr_, "planner.plan");
      plan = planner::planProgram(p, ctx, co.planner);
    }
    ir::Program fused, fixed;
    {
      Tracer::Scope s(tr_, "pipeline.passes");
      pipeline::PassManager pm(ctx);
      pm.verifyWith(co.verify);
      planner::addPlannedPasses(pm, plan, {&fused, &fixed});
      pm.run(p);
      addStats(counts, pm.stats());
    }
    {
      Tracer::Scope s(tr_, "tile.passes");
      if (co.tile > 0 && plan.tile.kind != planner::TilePlan::Kind::None) {
        pipeline::PassManager tilePm(ctx);
        tilePm.verifyWith(co.verify);
        addTilingPasses(tilePm, plan.tile, co.tile);
        tiled = tilePm.run(fixed).program;
        addStats(counts, tilePm.stats());
      } else {
        tiled = fixed;
      }
    }
    {
      Tracer::Scope s(tr_, "codegen.parallel_plan");
      par = codegen::deriveParallelPlan(tiled, ctx);
    }
    {
      Tracer::Scope s(tr_, "planner.plan");
      plan.tile.parallel = par;
      (void)planner::planSignature(plan);
    }
    counts["codegen.parallel_pairs_total"] += static_cast<double>(par.pairsTotal);
  }
  // Outside the spans: the engine's own compile of the same request
  // must produce the same tiled program and parallel plan.
  const engine::CompiledProgram cp = eng_.compile(p, ctx, co);
  if (cp.cacheHit())
    mismatches.push_back(e.name + ": cold compile found a cached plan");
  if (ir::printProgram(cp.tiled()) != ir::printProgram(tiled))
    mismatches.push_back(e.name + ": tiled program differs from Engine::compile's");
  if (cp.plan().tile.parallel.str() != par.str())
    mismatches.push_back(e.name + ": parallel plan " + par.str() +
                         " differs from Engine::compile's " +
                         cp.plan().tile.parallel.str());
}

std::string Decomposer::run(const Job& job) {
  const server::CorpusEntry& e = job.entry;
  const server::Request req = e.runRequest();
  tr_.setRequest(++req_);
  Tracer::Scope root(tr_, "request.run");
  transport(req);
  ir::Program p;
  {
    Tracer::Scope s(tr_, "ir.parse");
    p = ir::parseProgram(req.body);
  }
  poly::ParamContext ctx;
  engine::CompileOptions co;
  std::map<std::string, std::int64_t> params;
  {
    Tracer::Scope s(tr_, "server.handle");
    ctx = ctxOf(e, p);
    co.tile = e.tile;
    params = e.params;
  }
  std::optional<engine::CompiledProgram> cp;
  {
    Tracer::Scope s(tr_, "engine.compile_hit");
    cp.emplace(eng_.compile(p, ctx, co));
  }
  if (!cp->cacheHit())
    mismatches.push_back(e.name + ": run expected to hit the plan cache");
  const ir::Program& t = cp->tiled();
  std::shared_ptr<const codegen::NativeModule> mod;
  bool cached = false;
  {
    Tracer::Scope s(tr_, "engine.module_lookup");
    mod = codegen::processModuleCache().getOrCompile(t, &cached);
    if (!cached) s.rename("codegen.native_build");
  }
  if (!cached) {
    Tracer::Scope s(tr_, "codegen.emitc");
    codegen::EmitOptions eo;
    eo.functionName = "ff_kernel";
    eo.standalone = true;
    eo.nativeEntry = true;
    counts["codegen.emitc_bytes"] += static_cast<double>(codegen::emitC(t, eo).size());
  }
  std::optional<interp::Machine> m, ref;
  codegen::NativeModule::Binding b;
  {
    Tracer::Scope s(tr_, "interp.init");
    m.emplace(t, params);
    server::seedInit(t, *m, e.seed);
    ref.emplace(*m);
    b = bindMachine(t, *m);
  }
  {
    Tracer::Scope s(tr_, "native.run");
    mod->run(b);
  }
  {
    Tracer::Scope s(tr_, "interp.reference");
    interp::Interpreter it(t, *ref, nullptr,
                           interp::Interpreter::Dispatch::Batched,
                           interp::Backend::Bytecode);
    it.run();
  }
  bool same = false;
  {
    Tracer::Scope s(tr_, "interp.compare");
    std::string where;
    same = interp::machineStateBitwiseEqual(t, *m, *ref, &where);
  }
  Tracer::Scope s(tr_, "server.digest");
  return same ? hex16(server::stateDigest(t, *m)) : std::string();
}

std::map<std::string, double> layerValues(const Tracer& tr, double passes) {
  std::map<std::string, double> out;
  for (const auto& [name, secs] : tr.selfTimes()) {
    if (name.rfind("request.", 0) == 0) continue;  // root glue
    out[name + "_s"] += secs / passes;
  }
  const double native = out["native.run_s"];
  if (native > 0) out["interp.verify_to_native"] = out["interp.reference_s"] / native;
  out["trace.traced_s"] = tr.rootTotal() / passes;
  return out;
}

}  // namespace perfbench
