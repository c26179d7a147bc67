// The request traffic of the corpus workloads: server::buildCorpus's
// entries with seeded `seed` headers, fresh never-seen programs from the
// same families, and the independent reference each served answer is
// checked against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "server/corpus.h"

namespace perfbench {

namespace codegen = fixfuse::codegen;
namespace engine = fixfuse::engine;
namespace interp = fixfuse::interp;
namespace ir = fixfuse::ir;
namespace poly = fixfuse::poly;
namespace server = fixfuse::server;

struct Job {
  server::CorpusEntry entry;
  /// A served answer of this entry is known to be wrong today (recorded
  /// in CHANGES.md as a standing defect): the planner's generic tiling
  /// of LU and of the tiled synthetic family.
  bool knownDefect = false;
  /// The local run of the engine's tiled program agreed bit for bit
  /// with the untransformed program on the tree-walking interpreter.
  bool refOk = false;
  /// stateDigest of that local run: what the server must answer.
  std::uint64_t digest = 0;
  std::string refNote;  // why refOk is false
};

/// The daemon's parameter context for an entry's `ctx` header.
poly::ParamContext ctxOf(const server::CorpusEntry& e, const ir::Program& p);

/// Compile the entry on `eng` (no native code), run the tiled program
/// and the untransformed one on the tree-walking interpreter from the
/// initial values the server's seedInit gives the arrays they share,
/// compare those arrays bit for bit, and fill refOk/digest.
void checkReference(engine::Engine& eng, Job& job);

/// buildCorpus(16, 8) with run seeds drawn from `seed`, each entry's
/// reference checked on `eng`. Throws unless the corpus has 32 entries.
std::vector<Job> corpusJobs(std::uint64_t seed, engine::Engine& eng);

/// Never-seen programs of the corpus families for one client: synthetic
/// constants and fuzz seeds past the corpus range, tiled as the corpus
/// tiles them. Fuzz candidates the planner rejects are skipped (the
/// corpus filters its own the same way), using `eng` to trial-compile.
std::vector<Job> freshJobs(std::uint64_t seed, unsigned client,
                           std::size_t count, engine::Engine& eng);

std::string hex16(std::uint64_t v);

/// Seeded permutation of [0, n).
std::vector<std::size_t> shuffled(std::size_t n, std::uint64_t seed);

}  // namespace perfbench
