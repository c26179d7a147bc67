// Shared pieces of the fixfuse benchmark program: options, clocks,
// latency summaries, the result report (human-readable lines plus the
// final JSON line), the span recorder behind the traced runs, and the
// fork helper that gives every cold measurement a fresh process.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workDir;   // sockets, disk tier and compiler temporaries
  std::string traceOut;  // Chrome trace-event JSON (traced runs)
};

/// steady_clock seconds.
double now();

/// SplitMix64 finaliser: derive independent streams from the seed.
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

double median(std::vector<double> v);

/// Nearest-rank percentile of `v` at q in (0, 1].
double percentile(std::vector<double> v, double q);

/// A latency sample: median plus the highest of p99.9/p99/p95/p90/p75/p50
/// that still has at least ten samples beyond it.
struct Summary {
  std::size_t n = 0;
  double p50 = 0;
  double tailQ = 0;  // 0.99 for p99, ...
  double tail = 0;
  std::string tailName() const;  // "p99", "p99.9", ...
};
Summary summarize(const std::vector<double>& v);

/// Collects what one run reports. Lines go to stdout as they come; the
/// final JSON object is printed by finish() as the last line.
class Report {
 public:
  /// A metric of the final JSON line (value printed with all digits).
  void metric(const std::string& name, double value, const std::string& unit);
  /// A named result line for people (not part of the JSON line).
  void line(const std::string& name, double value, const std::string& unit,
            const std::string& note = "");
  void text(const std::string& s);

  void attempted(std::uint64_t n) { attempted_ += n; }
  /// One failed, refused or wrong answer. `expected` marks a standing,
  /// recorded defect; anything else makes the run incorrect.
  void failure(const std::string& what, bool expected);
  /// A broken benchmark invariant (wrong workload shape, missing
  /// reference): always makes the run incorrect.
  void invalid(const std::string& why);

  /// Print the failure summary and the final JSON line.
  void finish();

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::map<std::string, std::uint64_t> failures_;  // what -> count
  std::map<std::string, bool> failureExpected_;
  std::vector<std::string> invalid_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Span recorder for the traced runs. Spans nest per thread; a span's
/// self time is its duration minus its direct children's durations.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& t, const char* name);
    ~Scope();
    /// Rename the span once it is known which layer did the work.
    void rename(const char* name);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::size_t id_;
  };

  /// Requests group spans in the trace viewer (args.req).
  void setRequest(std::uint64_t req) { req_ = req; }

  /// Sum of self times per span name.
  std::map<std::string, double> selfTimes() const;
  /// Sum of root-span durations (the traced end-to-end time).
  double rootTotal() const;
  /// Add a finished root span measured elsewhere (another process on
  /// the same steady clock).
  void record(const char* name, double t0, double t1);

  /// Write the spans as Chrome trace-event JSON.
  void write(const std::string& path, int pid) const;

 private:
  struct Span {
    const char* name;
    double t0 = 0, t1 = 0;
    std::size_t parent = SIZE_MAX;
    std::uint64_t req = 0;
    double childTime = 0;
  };
  std::vector<Span> spans_;
  std::size_t open_ = SIZE_MAX;
  std::uint64_t req_ = 0;
};

/// Run `fn` in a forked child and return what it returned. The caller
/// must hold no other threads. Throws when the child fails; the child's
/// error text is carried over.
std::string inChild(const std::function<std::string()>& fn);

/// Restrict this process (and the threads and children it creates
/// later) to the first `n` CPUs it may run on; returns them, e.g. "0,1".
std::string pinToCpus(unsigned n);

/// Peak resident set of this process, MiB. Host-compiler processes are
/// not counted; forked measurement children report their own.
double peakRssMb();

/// A number with all its digits, for child payloads.
std::string num(double v);

/// Whitespace-free line protocol for child payloads.
std::vector<std::string> splitLines(const std::string& s);
std::vector<std::string> splitWords(const std::string& s);

}  // namespace perfbench
