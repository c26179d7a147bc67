#include "jobs.h"

#include "harness.h"

#include <cstdio>
#include <map>
#include <stdexcept>

#include "core/fuse.h"
#include "interp/compare.h"
#include "interp/interp.h"
#include "ir/parse.h"
#include "ir/printer.h"
#include "ir/stmt.h"
#include "server/server.h"
#include "support/error.h"

#include "../../tests/fuzz_systems.h"

namespace perfbench {

using namespace fixfuse;

namespace {

/// The corpus's synthetic two-nest family (server/corpus.cpp): one
/// constant per member, odd members tiled at 8.
server::CorpusEntry syntheticEntry(std::size_t i, std::uint64_t runSeed) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), R"(
program(N) {
  double R[(N + 4)];
  double S[(N + 4)];
  for k = 1 .. N {
    for i = 1 .. N {
      R[i] = (R[i] + (%g * S[i]));
    }
    for i = 1 .. N {
      S[i] = (S[i] + R[min((i + 1), N)]);
    }
  }
}
)",
                0.5 + 0.03125 * static_cast<double>(i));
  server::CorpusEntry e;
  e.name = "synthetic:" + std::to_string(i);
  e.text = buf;
  e.ctx = "N=4:1000000";
  e.tile = (i % 2) ? 8 : 0;
  e.params["N"] = 48;
  e.seed = runSeed;
  return e;
}

/// The corpus's fuzz family: a FixDeps fuzz system wrapped in a
/// single-trip outer loop (one top-level nest, the planner's shape).
bool fuzzEntry(std::uint64_t fuzzSeed, std::uint64_t runSeed,
               server::CorpusEntry* out) {
  const tests::FuzzSystem fz = tests::randomSystem(fuzzSeed);
  if (!fz.ok) return false;
  const ir::Program p0 = core::generateSequentialProgram(fz.sys);
  ir::Program w = p0;
  w.body = ir::blockS(
      {ir::loopS("t", ir::ic(1), ir::ic(1), {p0.body->clone()})});
  w.numberAssignments();
  out->name = "fuzz:" + std::to_string(fuzzSeed);
  out->text = ir::printProgram(w);
  out->ctx = "N=4:100000";
  out->tile = 0;
  out->params = {{"N", 32}};
  out->seed = runSeed;
  return true;
}

bool knownDefect(const server::CorpusEntry& e) {
  return e.name == "kernel:lu:tiled" ||
         (e.name.rfind("synthetic:", 0) == 0 && e.tile > 0);
}

void runTree(const ir::Program& p, interp::Machine& m) {
  interp::Interpreter it(p, m, nullptr, interp::Interpreter::Dispatch::Batched,
                         interp::Backend::Tree);
  it.run();
}

}  // namespace

std::string hex16(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::vector<std::size_t> shuffled(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = mix(seed, i) % i;
    std::swap(v[i - 1], v[j]);
  }
  return v;
}

poly::ParamContext ctxOf(const server::CorpusEntry& e, const ir::Program& p) {
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> bounds;
  std::size_t pos = 0;
  while (pos < e.ctx.size()) {
    std::size_t next = e.ctx.find(',', pos);
    if (next == std::string::npos) next = e.ctx.size();
    const std::string item = e.ctx.substr(pos, next - pos);
    pos = next + 1;
    const std::size_t eq = item.find('=');
    const std::size_t colon = item.find(':');
    if (eq == std::string::npos || colon == std::string::npos) continue;
    bounds[item.substr(0, eq)] = {std::stoll(item.substr(eq + 1, colon - eq - 1)),
                                  std::stoll(item.substr(colon + 1))};
  }
  poly::ParamContext ctx;
  for (const std::string& name : p.params) {
    auto it = bounds.find(name);
    if (it == bounds.end())
      ctx.addParam(name, 4, 1000000);
    else
      ctx.addParam(name, it->second.first, it->second.second);
  }
  return ctx;
}

void checkReference(engine::Engine& eng, Job& job) {
  const server::CorpusEntry& e = job.entry;
  job.knownDefect = knownDefect(e);
  job.refOk = false;
  const ir::Program p0 = ir::parseProgram(e.text);
  engine::CompileOptions co;
  co.tile = e.tile;
  const engine::CompiledProgram cp = eng.compile(p0, ctxOf(e, p0), co);
  const ir::Program& t = cp.tiled();

  interp::Machine mt(t, e.params);
  server::seedInit(t, mt, e.seed);
  // Arrays the transformation removed (scalarised temporaries) have no
  // counterpart to seed or compare; every array both declare is both.
  interp::Machine m0(p0, e.params);
  std::vector<std::string> shared;
  for (const ir::ArrayDecl& a : p0.arrays) {
    if (!mt.hasArray(a.name)) continue;
    shared.push_back(a.name);
    m0.array(a.name).data() = mt.array(a.name).data();
  }
  if (shared.empty()) {
    job.refNote = "no array in common with the tiled program";
    return;
  }
  runTree(p0, m0);
  runTree(t, mt);
  job.digest = server::stateDigest(t, mt);
  for (const std::string& a : shared) {
    if (!interp::bitsEqual(m0.array(a).data(), mt.array(a).data())) {
      job.refNote = "array " + a + " differs from the untransformed program";
      return;
    }
  }
  job.refOk = true;
}

std::vector<Job> corpusJobs(std::uint64_t seed, engine::Engine& eng) {
  const std::vector<server::CorpusEntry> corpus = server::buildCorpus(16, 8);
  if (corpus.size() != 32)
    throw std::runtime_error("buildCorpus(16, 8) returned " +
                             std::to_string(corpus.size()) +
                             " entries, expected 32");
  std::vector<Job> jobs(corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    jobs[i].entry = corpus[i];
    jobs[i].entry.seed = 1 + mix(seed, i) % 1000000007ull;
    checkReference(eng, jobs[i]);
  }
  return jobs;
}

std::vector<Job> freshJobs(std::uint64_t seed, unsigned client,
                           std::size_t count, engine::Engine& eng) {
  // Disjoint from the corpus (synthetic 0..7, fuzz seeds <= 128) and
  // between clients; synthetic constants stay below 10^4 so %g prints
  // each one distinctly.
  const std::uint64_t lane = (seed % 97) * 2 + client;
  std::size_t synth = 8 + lane * 1500;
  std::uint64_t fuzz = 1000 + lane * 100000;
  std::vector<Job> out;
  while (out.size() < count) {
    Job j;
    const std::uint64_t runSeed = 1 + mix(seed ^ 0xF00D, out.size() * 2 + client) % 1000000007ull;
    if (out.size() % 2 == 0) {
      j.entry = syntheticEntry(synth++, runSeed);
    } else {
      bool accepted = false;
      while (!accepted) {
        if (!fuzzEntry(fuzz++, runSeed, &j.entry)) continue;
        const ir::Program p = ir::parseProgram(j.entry.text);
        engine::CompileOptions co;
        try {
          eng.compile(p, ctxOf(j.entry, p), co);
          accepted = true;
        } catch (const Error&) {
        }
      }
    }
    j.knownDefect = knownDefect(j.entry);
    out.push_back(std::move(j));
  }
  return out;
}

}  // namespace perfbench
