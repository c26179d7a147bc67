// The corpus workloads: compile_cold, serve_warm and serve_churn, all
// through the in-process fixfuse-serve daemon (server::Server) and
// blocking server::Client connections, closed loop.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "codegen/module_cache.h"
#include "codegen/native_module.h"
#include "decompose.h"
#include "deps/cache.h"
#include "jobs.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {

using namespace fixfuse;

namespace {

constexpr unsigned kClients = 2;
// A run does a fixed amount of work, sized from --seconds with these
// rates (measured on a 4-vCPU host), not work until a deadline: so every
// run of a seed sends the same requests, and the count of answers
// checked, and of those that are standing defects, is the same on every
// run of the same code.
/// compile_cold: seconds per cold replay (at least kMinColdReplays).
constexpr double kColdReplaySeconds = 2.5;
constexpr int kMinColdReplays = 3;
/// serve_warm / serve_churn: corpus replays per client per second.
constexpr double kWarmReplaysPerSecond = 70;
constexpr double kChurnReplaysPerSecond = 8;

int coldReplays(const Options& o) {
  return std::max(kMinColdReplays,
                  static_cast<int>(std::ceil(o.seconds / kColdReplaySeconds)));
}

/// One daemon over its own engine. Stops on destruction.
struct Daemon {
  std::unique_ptr<engine::Engine> eng;
  std::unique_ptr<server::Server> srv;

  void start(const std::string& sock, unsigned workers) {
    eng = std::make_unique<engine::Engine>(codegen::engineCacheBoundFromEnv());
    srv = std::make_unique<server::Server>(
        *eng, server::Server::Options{sock, workers});
    srv->start();
  }
  const std::string& socket() const { return srv->socketPath(); }
  ~Daemon() {
    if (srv) srv->stop();
  }
};

/// One request as its client saw it.
struct Served {
  double seconds = 0;
  double done = 0;  // completion time (now())
  bool run = false;
  bool hit = false;  // plan cache hit, and for runs a module cache hit
  bool fresh = false;
};

/// What one client did in the measured window.
struct Tally {
  std::vector<Served> served;
  std::vector<std::pair<std::string, bool>> failures;  // what, expected
  std::uint64_t attempted = 0;
  /// Fresh jobs sent (index into the client's pool) and their served
  /// digests ("" when the run failed); judged after the window.
  std::vector<std::pair<std::size_t, std::string>> fresh;
  std::string error;  // transport failure that ended the client
};

bool isHit(const server::Response& r, bool run) {
  return r.header("cache") == "hit" &&
         (!run || r.header("compile_cached") == "1");
}

std::string freshLabel(const Job& j) {
  const std::string fam = j.entry.name.substr(0, j.entry.name.find(':'));
  return "fresh " + fam + (j.entry.tile > 0 ? ":tiled" : "");
}

/// A served run answer is right when the local reference agreed with
/// the untransformed program and the digests match.
void judge(const Job& j, const std::string& label, const std::string& digest,
           std::vector<std::pair<std::string, bool>>& failures) {
  if (!j.refOk || digest != hex16(j.digest))
    failures.push_back({label + ": wrong answer", j.knownDefect});
}

/// compile then run of one job; returns the run's digest ("" on error).
std::string servePair(server::Client& c, const Job& job, bool fresh,
                      Tally& t) {
  std::string digest;
  const std::string label = fresh ? freshLabel(job) : job.entry.name;
  for (int k = 0; k < 2; ++k) {
    const bool run = k == 1;
    const server::Request req =
        run ? job.entry.runRequest() : job.entry.compileRequest();
    const double t0 = now();
    const server::Response resp = c.call(req);
    const double dt = now() - t0;
    ++t.attempted;
    t.served.push_back({dt, t0 + dt, run, isHit(resp, run), fresh});
    if (!resp.ok) {
      t.failures.push_back({label + ": " + resp.header("error") + " error",
                            false});
      continue;
    }
    if (!run) continue;
    digest = resp.header("digest");
    if (!fresh) judge(job, label, digest, t.failures);
  }
  return digest;
}

struct Setup {
  std::vector<Job> jobs;
  std::vector<std::vector<Job>> fresh;  // serve_churn: one pool per client
  Daemon daemon;
};

enum class Kind { Cold, Warm, Churn };

std::string socketPath(const Options& o, const std::string& tag) {
  return o.workDir + "/" + tag + ".sock";
}

/// Corpus replays each client makes in one measuring process (the
/// window is split over kSetupReps processes).
std::uint64_t processReplays(const Options& o, Kind kind) {
  const double rate =
      kind == Kind::Churn ? kChurnReplaysPerSecond : kWarmReplaysPerSecond;
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(o.seconds * rate / kSetupReps)));
}

/// Fresh programs per client: one per replay of a measuring process
/// (every process serves the same pool), and enough for the traced
/// run's passes.
std::size_t freshPoolSize(const Options& o) {
  return static_cast<std::size_t>(
      std::max<std::uint64_t>(processReplays(o, Kind::Churn), 8));
}

/// The run's inputs, made once: the corpus with seeded run seeds and
/// the reference answer of every entry; for serve_churn also the pools
/// of never-seen programs.
void prepare(const Options& o, Kind kind, Setup& s) {
  engine::Engine ref(4096);
  s.jobs = corpusJobs(o.seed, ref);
  if (kind == Kind::Churn)
    for (unsigned c = 0; c < kClients; ++c)
      s.fresh.push_back(freshJobs(o.seed, c, freshPoolSize(o), ref));
}

/// The daemon's set-up (serve_*): for serve_churn a fresh persistent-tier
/// directory, then the daemon with two workers and an untimed warm pass
/// in which each client in turn replays the corpus once. The clients
/// take turns so that no two compiles overlap: the peak resident set
/// then does not depend on which large compiles the scheduler happened
/// to run side by side.
void startDaemon(const Options& o, Kind kind, const std::string& tag,
                 Setup& s) {
  if (kind == Kind::Churn) {
    const std::string dir = o.workDir + "/disk-" + tag;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    ::setenv("FIXFUSE_CACHE_DIR", dir.c_str(), 1);
  }
  // The daemon starts without the dependence answers the reference
  // compiles left in the process-wide cache.
  deps::depCacheClear();
  s.daemon.start(socketPath(o, tag), kClients);
  for (unsigned c = 0; c < kClients; ++c) {
    try {
      server::Client cl(s.daemon.socket());
      Tally warm;
      for (std::size_t i : shuffled(s.jobs.size(), mix(o.seed, 100 + c)))
        servePair(cl, s.jobs[i], false, warm);
    } catch (const std::exception& e) {
      throw std::runtime_error(std::string("warm pass: ") + e.what());
    }
  }
}

/// setup_s: the time to make the inputs (once) plus the median of the
/// daemon set-ups (one per measuring process or cold replay).
void reportSetUp(Report& rep, double inputs, const std::vector<double>& reps) {
  const double setup = inputs + median(reps);
  char note[160];
  std::snprintf(note, sizeof(note),
                "inputs %.4g s + median of %zu daemon set-ups %.4g s", inputs,
                reps.size(), median(reps));
  rep.line("setup_s", setup, "s", note);
  rep.metric("setup_s", setup, "s");
}

void addTally(Report& rep, const Tally& t) {
  rep.attempted(t.attempted);
  for (const auto& [what, expected] : t.failures) rep.failure(what, expected);
  if (!t.error.empty()) rep.invalid("client ended early: " + t.error);
}

void timingLine(Report& rep, const std::string& name,
                const std::vector<double>& secs) {
  const Summary s = summarize(secs);
  char note[160];
  std::snprintf(note, sizeof(note), "n=%zu %s=%.4g ms", s.n,
                s.tailQ > 0 ? s.tailName().c_str() : "tail(n<10)",
                s.tail * 1e3);
  rep.line(name, s.p50 * 1e3, "ms", note);
}

/// The p99 of a latency sample, with how many samples lie beyond it.
void tailLine(Report& rep, const std::string& name,
              const std::vector<double>& secs) {
  const std::size_t n = secs.size();
  const auto rank =
      static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(n) - 1e-9));
  const std::size_t beyond = n - std::min(n, rank);
  rep.line(name, percentile(secs, 0.99) * 1e3, "ms",
           "n=" + std::to_string(n) + ", " + std::to_string(beyond) +
               " beyond p99" + (beyond >= 10 ? "" : " (fewer than 10)"));
}

// --- compile_cold ----------------------------------------------------------------

/// One cold replay in a fresh child process: a new daemon (one worker
/// thread, which never ran the set-up's compiles) over a new engine, an
/// empty module cache and dependence cache, no persistent tier.
std::string coldPass(const Options& o, const std::vector<Job>& jobs,
                     int pass) {
  deps::depCacheClear();
  if (codegen::processModuleCache().size() != 0 ||
      codegen::hostCompileCount() != 0)
    throw std::runtime_error("cold pass started with a warm module cache");
  if (codegen::processModuleCache().diskEnabled())
    throw std::runtime_error("cold pass has a persistent tier");
  const double start = now();
  Daemon d;
  d.start(socketPath(o, "cold" + std::to_string(pass)), 1);
  std::string out = "setup " + num(now() - start) + "\n";
  server::Client c(d.socket());
  const double t0 = now();
  for (std::size_t i : shuffled(jobs.size(), mix(o.seed, 1000 + pass))) {
    for (int k = 0; k < 2; ++k) {
      const bool run = k == 1;
      const server::Request req =
          run ? jobs[i].entry.runRequest() : jobs[i].entry.compileRequest();
      const double a = now();
      const server::Response r = c.call(req);
      const double dt = now() - a;
      out += std::string(run ? "r " : "c ") + std::to_string(i) + " " +
             num(dt) + " " + (r.ok ? "ok" : r.header("error")) +
             " " + (isHit(r, run) ? "hit" : "miss") + " " +
             (run && r.ok ? r.header("digest") : "-") + "\n";
    }
  }
  out += "wall " + num(now() - t0) + "\n";
  out += "rss " + num(peakRssMb()) + "\n";
  return out;
}

/// compile_cold, untraced. Its system set-up is each replay's daemon
/// start (new engine, one worker, empty caches).
void compileColdMeasured(const Options& o, Setup& s, Report& rep,
                         double inputs) {
  double childRss = 0;
  std::vector<double> starts;
  // A cold request's latency is that of its compile plus its first run:
  // the two populations (a few ms, and tens of ms for emitC + cc) would
  // put a median over single frames on the edge between them.
  std::vector<double> compileSum, runSum, compileLat, pairLat, passRps;
  std::vector<std::vector<double>> entryPair(s.jobs.size());
  std::uint64_t requests = 0;
  const int passes = coldReplays(o);
  for (int pass = 0; pass < passes; ++pass) {
    const std::string out = inChild([&] { return coldPass(o, s.jobs, pass); });
    double cs = 0, rs = 0, compileDt = 0;
    for (const std::string& ln : splitLines(out)) {
      const auto w = splitWords(ln);
      if (w.at(0) == "wall") {
        passRps.push_back(2.0 * static_cast<double>(s.jobs.size()) /
                          std::stod(w.at(1)));
        continue;
      }
      if (w.at(0) == "rss") {
        childRss = std::max(childRss, std::stod(w.at(1)));
        continue;
      }
      if (w.at(0) == "setup") {
        starts.push_back(std::stod(w.at(1)));
        continue;
      }
      const bool run = w.at(0) == "r";
      const Job& job = s.jobs.at(std::stoul(w.at(1)));
      const double dt = std::stod(w.at(2));
      ++requests;
      rep.attempted(1);
      (run ? rs : cs) += dt;
      if (run) {
        pairLat.push_back(compileDt + dt);
        entryPair[std::stoul(w.at(1))].push_back(compileDt + dt);
      } else {
        compileLat.push_back(dt);
        compileDt = dt;
      }
      if (w.at(3) != "ok") {
        rep.failure(job.entry.name + ": " + w.at(3) + " error", false);
        continue;
      }
      // Cold means: every compile builds a plan, every run builds a module.
      if (!run && w.at(4) == "hit")
        rep.invalid(job.entry.name + ": cold compile hit the plan cache");
      if (run) {
        std::vector<std::pair<std::string, bool>> f;
        judge(job, job.entry.name, w.at(5), f);
        for (const auto& [what, expected] : f) rep.failure(what, expected);
      }
    }
    compileSum.push_back(cs);
    runSum.push_back(rs);
  }
  reportSetUp(rep, inputs, starts);

  rep.text("compile_cold: " + std::to_string(passes) + " cold replays of " +
           std::to_string(s.jobs.size()) + " entries, one client, one worker");
  rep.line("compile_s", median(compileSum), "s",
           "median over " + std::to_string(passes) + " replays of the summed cold compile latencies");
  timingLine(rep, "compile_p50_ms", compileLat);
  rep.line("first_run_s", median(runSum), "s",
           "median over replays of the summed first-run latencies");
  // Each entry's typical cold latency is its median over the replays: a
  // host stall during one replay then moves only the entries it hit,
  // and only if it hit them in most replays. The median entry gives
  // latency_p50_ms; a typical replay, their sum, gives the throughput.
  std::vector<double> typical;
  double typicalPass = 0;
  for (const auto& v : entryPair) {
    typical.push_back(median(v));
    typicalPass += typical.back();
  }
  const double p50 = median(typical) * 1e3;
  const Summary pooled = summarize(pairLat);
  char note[200];
  std::snprintf(note, sizeof(note),
                "median over entries of each one's median cold compile + "
                "first run; pooled n=%zu %s=%.4g ms",
                pooled.n, pooled.tailName().c_str(), pooled.tail * 1e3);
  rep.line("latency_p50_ms", p50, "ms", note);
  const double rps = 2.0 * static_cast<double>(s.jobs.size()) / typicalPass;
  std::snprintf(note, sizeof(note),
                "corpus requests over the sum of per-entry median latencies "
                "(per replay: min %.4g, max %.4g), %llu requests",
                *std::min_element(passRps.begin(), passRps.end()),
                *std::max_element(passRps.begin(), passRps.end()),
                static_cast<unsigned long long>(requests));
  rep.line("throughput_rps", rps, "1/s", note);
  const double rss = std::max(peakRssMb(), childRss);
  rep.line("peak_rss_mb", rss, "MB");
  rep.metric("throughput_rps", rps, "1/s");
  rep.metric("latency_p50_ms", p50, "ms");
  rep.metric("peak_rss_mb", rss, "MB");
}

// --- serve_warm / serve_churn ----------------------------------------------------

void clientLoop(const Setup& s, const Options& o, unsigned client,
                std::uint64_t firstReplay, std::uint64_t replays, bool churn,
                Tally& t) {
  server::Client c(s.daemon.socket());
  std::size_t nextFresh = 0;
  for (std::uint64_t replay = firstReplay; replay < firstReplay + replays;
       ++replay) {
    const std::uint64_t rs = mix(mix(o.seed, client), replay);
    const auto order = shuffled(s.jobs.size(), rs);
    const std::size_t freshAt = churn ? mix(rs, 7) % (order.size() + 1) : SIZE_MAX;
    for (std::size_t pos = 0; pos <= order.size(); ++pos) {
      if (pos == freshAt) {
        if (nextFresh == s.fresh[client].size())
          throw std::runtime_error("pool of fresh programs exhausted");
        const std::size_t fi = nextFresh++;
        t.fresh.push_back({fi, servePair(c, s.fresh[client][fi], true, t)});
      }
      if (pos < order.size()) servePair(c, s.jobs[order[pos]], false, t);
    }
  }
}

std::string oneLine(std::string s) {
  std::replace(s.begin(), s.end(), '\n', ' ');
  return s;
}

/// One measuring process (a forked child): its own daemon, set up and
/// timed, then its share of the window's replays. Reports, one item a
/// line: the set-up time, the peak resident set, the request rate while
/// both clients were busy, every request, and each client's tally.
std::string serveProcess(const Options& o, Kind kind, const Setup& in,
                         int proc) {
  Setup s;
  s.jobs = in.jobs;
  s.fresh = in.fresh;
  const double a = now();
  startDaemon(o, kind, "p" + std::to_string(proc), s);
  const double setup = now() - a;

  const std::uint64_t replays = processReplays(o, kind);
  std::vector<Tally> tallies(kClients);
  const double t0 = now();
  {
    std::vector<std::thread> th;
    for (unsigned c = 0; c < kClients; ++c)
      th.emplace_back([&, c] {
        try {
          clientLoop(s, o, c, proc * replays, replays, kind == Kind::Churn,
                     tallies[c]);
        } catch (const std::exception& e) {
          tallies[c].error = e.what();
        }
      });
    for (auto& t : th) t.join();
  }
  // The clients do the same work but finish at different times; the
  // rate counts the requests done while both were busy.
  double allBusy = now() - t0;
  for (const Tally& t : tallies)
    if (!t.served.empty()) allBusy = std::min(allBusy, t.served.back().done - t0);
  double busyDone = 0;

  std::string out = "setup " + num(setup) + "\nrss " + num(peakRssMb()) + "\n";
  std::string reqs;
  for (unsigned c = 0; c < kClients; ++c) {
    const Tally& t = tallies[c];
    for (const Served& r : t.served) {
      if (r.done - t0 <= allBusy) busyDone += 1;
      reqs += "q " + num(r.seconds) + (r.hit ? " 1" : " 0") +
              (r.fresh ? " 1\n" : " 0\n");
    }
    out += "a " + std::to_string(t.attempted) + "\n";
    for (const auto& [what, expected] : t.failures)
      out += std::string("f ") + (expected ? "1 " : "0 ") + oneLine(what) + "\n";
    for (const auto& [fi, digest] : t.fresh)
      out += "d " + std::to_string(c) + " " + std::to_string(fi) + " " +
             digest + "\n";
    if (!t.error.empty()) out += "e " + oneLine(t.error) + "\n";
  }
  out += "rate " + num(busyDone / allBusy) + "\n";
  return out + reqs;
}

/// serve_warm / serve_churn, untraced. The window is split over
/// kSetupReps forked processes, each with its own daemon: what a
/// process is dealt at its start (address layout, which worker each
/// connection lands on, how the allocator's arenas fill) holds for its
/// whole life, so one process is one sample, and the gated figures are
/// medians over processes.
void serveMeasured(const Options& o, Kind kind, Setup& s, Report& rep,
                   double inputs) {
  const bool churn = kind == Kind::Churn;
  std::vector<double> setups, rss, procRps, procP50;
  std::vector<double> all, hits, misses;
  std::vector<std::tuple<unsigned, std::size_t, std::string>> freshRuns;
  std::size_t corpusMisses = 0;
  double wall = 0;
  for (int proc = 0; proc < kSetupReps; ++proc) {
    const double t0 = now();
    const std::string out =
        inChild([&] { return serveProcess(o, kind, s, proc); });
    wall += now() - t0;
    std::vector<double> lat;
    for (const std::string& ln : splitLines(out)) {
      const auto w = splitWords(ln);
      const std::string& tag = w.at(0);
      if (tag == "q") {
        const double dt = std::stod(w.at(1));
        const bool hit = w.at(2) == "1", fresh = w.at(3) == "1";
        lat.push_back(dt);
        all.push_back(dt);
        (hit ? hits : misses).push_back(dt);
        if (!hit && !fresh) ++corpusMisses;
      } else if (tag == "setup") {
        setups.push_back(std::stod(w.at(1)));
      } else if (tag == "rss") {
        rss.push_back(std::stod(w.at(1)));
      } else if (tag == "a") {
        rep.attempted(std::stoull(w.at(1)));
      } else if (tag == "f") {
        rep.failure(ln.substr(4), w.at(1) == "1");
      } else if (tag == "d") {
        freshRuns.emplace_back(std::stoul(w.at(1)), std::stoul(w.at(2)),
                               w.size() > 3 ? w.at(3) : "");
      } else if (tag == "e") {
        rep.invalid("client ended early: " + ln.substr(2));
      } else if (tag == "rate") {
        procRps.push_back(std::stod(w.at(1)));
      }
    }
    procP50.push_back(median(lat));
  }
  reportSetUp(rep, inputs, setups);

  // Fresh answers are checked after the window, against references
  // computed the same way as the corpus's (once per program: every
  // process serves the same pool).
  engine::Engine ref(4096);
  std::vector<std::vector<bool>> checked(s.fresh.size());
  for (std::size_t c = 0; c < s.fresh.size(); ++c)
    checked[c].assign(s.fresh[c].size(), false);
  std::vector<std::pair<std::string, bool>> failures;
  for (const auto& [c, fi, digest] : freshRuns) {
    Job& j = s.fresh.at(c).at(fi);
    if (!checked[c][fi]) checkReference(ref, j);
    checked[c][fi] = true;
    if (!digest.empty()) judge(j, freshLabel(j), digest, failures);
  }
  for (const auto& [what, expected] : failures) rep.failure(what, expected);
  if (!churn && corpusMisses > 0)
    rep.invalid(std::to_string(corpusMisses) +
                " serve_warm requests missed a cache after the warm pass");

  rep.text(std::string(churn ? "serve_churn" : "serve_warm") + ": " +
           std::to_string(kSetupReps) + " processes, each a daemon with " +
           std::to_string(kClients) + " workers and " +
           std::to_string(kClients) + " closed-loop clients; " +
           std::to_string(all.size()) + " requests in " +
           std::to_string(wall) + " s including set-ups" +
           (churn ? ", " + std::to_string(freshRuns.size()) +
                        " fresh compile+run pairs"
                  : ""));
  const double rps = median(procRps);
  char note[200];
  std::snprintf(note, sizeof(note),
                "median over processes of each one's rate while both clients "
                "were busy (min %.0f, max %.0f)",
                *std::min_element(procRps.begin(), procRps.end()),
                *std::max_element(procRps.begin(), procRps.end()));
  rep.line("throughput_rps", rps, "1/s", note);
  const Summary pooled = summarize(all);
  std::snprintf(note, sizeof(note),
                "median over processes of each one's median; pooled n=%zu "
                "p50=%.4g ms",
                pooled.n, pooled.p50 * 1e3);
  rep.line("latency_p50_ms", median(procP50) * 1e3, "ms", note);
  tailLine(rep, "latency_p99_ms", all);
  if (churn) {
    tailLine(rep, "hit_latency_p99_ms", hits);
    timingLine(rep, "miss_latency_p50_ms", misses);
    rep.line("corpus_misses", static_cast<double>(corpusMisses), "count",
             "corpus requests that missed (evicted by fresh programs)");
  }
  const double peak = median(rss);
  rep.line("peak_rss_mb", peak, "MB",
           "median over processes of each one's peak (max " +
               num(*std::max_element(rss.begin(), rss.end())) + ")");
  rep.metric("throughput_rps", rps, "1/s");
  rep.metric("latency_p50_ms", median(procP50) * 1e3, "ms");
  rep.metric("peak_rss_mb", peak, "MB");
}

// --- traced runs -----------------------------------------------------------------

struct CacheSnap {
  support::CacheStats plan, module;
  support::DiskStoreStats disk;
  std::uint64_t hostCompiles = 0;
};

CacheSnap snap(engine::Engine& eng) {
  CacheSnap c;
  c.plan = eng.cacheStats();
  c.module = codegen::processModuleCache().stats();
  c.disk = codegen::processModuleCache().diskStats();
  c.hostCompiles = codegen::hostCompileCount();
  return c;
}

void addCacheDeltas(std::map<std::string, double>& v, const CacheSnap& a,
                    const CacheSnap& b, double passes) {
  auto d = [passes](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(y - x) / passes;
  };
  v["engine.plan_hits"] = d(a.plan.hits, b.plan.hits);
  v["engine.plan_misses"] = d(a.plan.misses, b.plan.misses);
  v["engine.plan_evictions"] = d(a.plan.evictions, b.plan.evictions);
  v["engine.module_hits"] = d(a.module.hits, b.module.hits);
  v["engine.module_misses"] = d(a.module.misses, b.module.misses);
  v["disk.stores"] = d(a.disk.stores, b.disk.stores);
  v["disk.hits"] = d(a.disk.hits, b.disk.hits);
  v["disk.corrupt"] = d(a.disk.corrupt, b.disk.corrupt);
  v["codegen.host_compiles"] = d(a.hostCompiles, b.hostCompiles);
}

void addCounts(std::map<std::string, double>& v, const Decomposer& dec,
               double passes) {
  for (const auto& [name, x] : dec.counts)
    if (name != "dep_cache_hits") v[name] = x / passes;
  auto it = dec.counts.find("dep_cache_hits");
  const double q = v["pipeline.dep_queries"] * passes;
  if (it != dec.counts.end() && q > 0)
    v["pipeline.dep_cache_hit_ratio"] = it->second / q;
}

/// Serialize / parse name-value maps across the child pipe.
std::string encode(const std::map<std::string, double>& v) {
  std::string out;
  for (const auto& [k, x] : v) out += "v " + k + " " + num(x) + "\n";
  return out;
}

void compileColdTraced(const Options& o, Setup& s, Report& rep) {
  // Untraced reference: one cold replay through the daemon.
  double untraced = 0;
  for (const std::string& ln :
       splitLines(inChild([&] { return coldPass(o, s.jobs, 0); })))
    if (ln.rfind("wall ", 0) == 0) untraced = std::stod(ln.substr(5));

  const std::string out = inChild([&] {
    deps::depCacheClear();
    if (codegen::processModuleCache().size() != 0)
      throw std::runtime_error("traced pass started with a warm module cache");
    Daemon ping;  // transport only: answers the ping frames
    ping.start(socketPath(o, "trace"), 1);
    server::Client c(ping.socket());
    engine::Engine eng(codegen::engineCacheBoundFromEnv());
    Tracer tr;
    Decomposer dec(tr, eng, &c);
    std::string res;
    const CacheSnap a = snap(eng);
    // A fresh thread: the set-up's compiles warmed this one's memo.
    std::thread th([&] {
      for (std::size_t i : shuffled(s.jobs.size(), mix(o.seed, 1000))) {
        dec.compile(s.jobs[i], true);
        res += "d " + std::to_string(i) + " " + dec.run(s.jobs[i]) + "\n";
      }
    });
    th.join();
    std::map<std::string, double> v = layerValues(tr, 1);
    addCacheDeltas(v, a, snap(eng), 1);
    addCounts(v, dec, 1);
    for (const std::string& m : dec.mismatches) res += "m " + m + "\n";
    if (!o.traceOut.empty()) tr.write(o.traceOut, static_cast<int>(::getpid()));
    return res + encode(v);
  });

  std::map<std::string, double> v;
  for (const std::string& ln : splitLines(out)) {
    if (ln.rfind("m ", 0) == 0) {
      rep.invalid(ln.substr(2));
    } else if (ln.rfind("v ", 0) == 0) {
      const auto w = splitWords(ln);
      v[w.at(1)] = std::stod(w.at(2));
    } else if (ln.rfind("d ", 0) == 0) {
      const auto w = splitWords(ln);
      const Job& j = s.jobs.at(std::stoul(w.at(1)));
      rep.attempted(2);
      if (w.size() < 3) {
        rep.failure(j.entry.name + ": verification error", false);
        continue;
      }
      std::vector<std::pair<std::string, bool>> f;
      judge(j, j.entry.name, w.at(2), f);
      for (const auto& [what, expected] : f) rep.failure(what, expected);
    }
  }
  reportTraced(o, rep, v, untraced, nullptr);
}

void serveTraced(const Options& o, Kind kind, Setup& s, Report& rep) {
  const bool churn = kind == Kind::Churn;
  const int passes = churn ? 8 : 40;
  server::Client c(s.daemon.socket());
  // Untraced reference: the same replays through the daemon, one client
  // (fresh programs from client 0's pool).
  Tally t;
  double untraced = 0;
  std::size_t nextFresh = 0;
  for (int r = 0; r < passes; ++r) {
    const double t0 = now();
    for (std::size_t i : shuffled(s.jobs.size(), mix(o.seed, 5000 + r)))
      servePair(c, s.jobs[i], false, t);
    if (churn) {
      const std::size_t fi = nextFresh++;
      t.fresh.push_back({fi, servePair(c, s.fresh[0].at(fi), true, t)});
    }
    untraced += now() - t0;
  }
  untraced /= passes;
  engine::Engine ref(4096);
  for (const auto& [fi, digest] : t.fresh) {
    Job& j = s.fresh[0][fi];
    checkReference(ref, j);
    if (!digest.empty()) judge(j, freshLabel(j), digest, t.failures);
  }
  addTally(rep, t);

  // Traced: the same traffic decomposed (fresh programs from client 1's
  // pool, compiled cold step by step).
  Tracer tr;
  Decomposer dec(tr, *s.daemon.eng, &c);
  const CacheSnap a = snap(*s.daemon.eng);
  nextFresh = 0;
  for (int r = 0; r < passes; ++r) {
    for (std::size_t i : shuffled(s.jobs.size(), mix(o.seed, 5000 + r))) {
      dec.compile(s.jobs[i], false);
      const std::string d = dec.run(s.jobs[i]);
      rep.attempted(2);
      std::vector<std::pair<std::string, bool>> f;
      judge(s.jobs[i], s.jobs[i].entry.name, d, f);
      for (const auto& [what, expected] : f) rep.failure(what, expected);
    }
    if (churn) {
      Job& j = s.fresh[1].at(nextFresh++);
      dec.compile(j, true);
      const std::string d = dec.run(j);
      rep.attempted(2);
      checkReference(ref, j);
      std::vector<std::pair<std::string, bool>> f;
      judge(j, freshLabel(j), d, f);
      for (const auto& [what, expected] : f) rep.failure(what, expected);
    }
  }
  std::map<std::string, double> v = layerValues(tr, passes);
  addCacheDeltas(v, a, snap(*s.daemon.eng), passes);
  addCounts(v, dec, passes);
  for (const std::string& m : dec.mismatches) rep.invalid(m);
  reportTraced(o, rep, v, untraced, &tr);
}

void runCorpusWorkload(const Options& o, Kind kind, Report& rep) {
  // The serving workloads run on kClients CPUs, one per client/worker
  // pair, so a request's hand-offs are context switches on one CPU, not
  // cross-CPU wake-ups a hypervisor may delay. Unpinned on a 4-vCPU
  // host, serve_warm moved between 4.8k and 6.8k req/s over three runs
  // with 5-10% of CPU time stolen; pinned, 8.3k-9.0k with 1.5-2.3%.
  if (kind != Kind::Cold)
    rep.text("serving pinned to CPUs " + pinToCpus(kClients));
  Setup s;
  if (o.trace) {
    prepare(o, kind, s);
    if (kind == Kind::Cold) {
      compileColdTraced(o, s, rep);
    } else {
      startDaemon(o, kind, "main", s);
      serveTraced(o, kind, s, rep);
    }
    return;
  }
  const double t0 = now();
  prepare(o, kind, s);
  const double inputs = now() - t0;
  if (kind == Kind::Cold) {
    compileColdMeasured(o, s, rep, inputs);
  } else {
    serveMeasured(o, kind, s, rep, inputs);
  }
  std::size_t wrongRefs = 0;
  for (const Job& j : s.jobs) wrongRefs += j.refOk ? 0 : 1;
  rep.text("corpus entries whose tiled program disagrees with the "
           "untransformed one: " + std::to_string(wrongRefs));
}

}  // namespace

void compileCold(const Options& o, Report& rep) {
  runCorpusWorkload(o, Kind::Cold, rep);
}
void serveWarm(const Options& o, Report& rep) {
  runCorpusWorkload(o, Kind::Warm, rep);
}
void serveChurn(const Options& o, Report& rep) {
  runCorpusWorkload(o, Kind::Churn, rep);
}

}  // namespace perfbench
