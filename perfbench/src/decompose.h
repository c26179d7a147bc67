// The traced request path: the calls the daemon makes for one compile
// or run request (Service::dispatch, Engine::compile,
// CompiledProgram::runNative), made one by one from here, in the same
// order, each under a span named after the module it enters.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "codegen/native_module.h"
#include "engine/engine.h"
#include "harness.h"
#include "interp/machine.h"
#include "jobs.h"
#include "server/server.h"

namespace perfbench {

/// Storage binding of a machine for NativeModule::run, in program
/// declaration order (as pipeline::NativeExecutor builds it).
codegen::NativeModule::Binding bindMachine(const ir::Program& p,
                                           interp::Machine& m);

class Decomposer {
 public:
  /// `transport`, when given, is a connection to a daemon: each request
  /// first sends a `ping` frame carrying the request's headers and body,
  /// which costs what moving the frame costs (server.transport).
  Decomposer(Tracer& tr, engine::Engine& eng, server::Client* transport)
      : tr_(tr), eng_(eng), transport_(transport) {}

  /// The compile request. With `cold`, the engine's steps run one by one
  /// (parse, fingerprint, plan, passes, tiling, parallel plan) and the
  /// products are then checked against Engine::compile's; otherwise the
  /// request is an Engine::compile hit.
  void compile(const Job& job, bool cold);
  /// The run request; returns the state digest (hex), or "" when the
  /// native state differed from the bytecode reference (the daemon
  /// answers with a verification error then).
  std::string run(const Job& job);

  /// Counts gathered along the way (pipeline stats, pairs, bytes).
  std::map<std::string, double> counts;
  /// Products that differed from Engine::compile's.
  std::vector<std::string> mismatches;

 private:
  void transport(const server::Request& req);

  Tracer& tr_;
  engine::Engine& eng_;
  server::Client* transport_;
  std::uint64_t req_ = 0;
};

/// Per-layer values from a tracer's self times: renames span names to
/// metric names (ir.parse -> ir.parse_s) and derives verify_to_native.
std::map<std::string, double> layerValues(const Tracer& tr, double passes);

}  // namespace perfbench
