#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace perfbench {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size()) - 1e-9));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

std::string Summary::tailName() const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "p%g", tailQ * 100);
  return buf;
}

Summary summarize(const std::vector<double>& v) {
  Summary s;
  s.n = v.size();
  s.p50 = median(v);
  for (double q : {0.999, 0.99, 0.95, 0.9, 0.75, 0.5}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(s.n) - 1e-9));
    if (s.n >= rank + 10) {
      s.tailQ = q;
      s.tail = percentile(v, q);
      break;
    }
  }
  return s;
}

// --- Report ------------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::line(const std::string& name, double value,
                  const std::string& unit, const std::string& note) {
  std::printf("  %-28s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(),
              note.c_str());
  std::fflush(stdout);
}

void Report::text(const std::string& s) {
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

void Report::failure(const std::string& what, bool expected) {
  ++failed_;
  ++failures_[what];
  failureExpected_[what] = expected;
}

void Report::invalid(const std::string& why) {
  invalid_.push_back(why);
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
}

void Report::finish() {
  bool correct = invalid_.empty();
  if (!failures_.empty()) {
    std::printf("failed, refused or wrong answers (%llu of %llu attempted):\n",
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));
    for (const auto& [what, count] : failures_) {
      const bool expected = failureExpected_[what];
      std::printf("  %-40s x%llu%s\n", what.c_str(),
                  static_cast<unsigned long long>(count),
                  expected ? "  (standing defect, see CHANGES.md)" : "");
      correct = correct && expected;
    }
  }
  for (const std::string& why : invalid_)
    std::printf("invalid run: %s\n", why.c_str());
  if (attempted_ > 0)
    line("failed_ratio",
         static_cast<double>(failed_) / static_cast<double>(attempted_),
         "ratio",
         std::to_string(failed_) + " of " + std::to_string(attempted_));

  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    char val[64];
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(val, sizeof(val), "%.17g", v);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + val + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// --- Tracer ------------------------------------------------------------------

Tracer::Scope::Scope(Tracer& t, const char* name) : t_(t) {
  Span s;
  s.name = name;
  s.parent = t_.open_;
  s.req = t_.req_;
  id_ = t_.spans_.size();
  t_.spans_.push_back(s);
  t_.open_ = id_;
  t_.spans_[id_].t0 = now();
}

Tracer::Scope::~Scope() {
  Span& s = t_.spans_[id_];
  s.t1 = now();
  if (s.parent != SIZE_MAX) t_.spans_[s.parent].childTime += s.t1 - s.t0;
  t_.open_ = s.parent;
}

void Tracer::Scope::rename(const char* name) { t_.spans_[id_].name = name; }

void Tracer::record(const char* name, double t0, double t1) {
  Span s;
  s.name = name;
  s.t0 = t0;
  s.t1 = t1;
  s.req = req_;
  spans_.push_back(s);
}

std::map<std::string, double> Tracer::selfTimes() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.name] += (s.t1 - s.t0) - s.childTime;
  return out;
}

double Tracer::rootTotal() const {
  double total = 0;
  for (const Span& s : spans_)
    if (s.parent == SIZE_MAX) total += s.t1 - s.t0;
  return total;
}

void Tracer::write(const std::string& path, int pid) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
    return;
  }
  const double base = spans_.empty() ? 0 : spans_.front().t0;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"req\": %llu, "
                 "\"span\": %zu, \"parent\": %lld}}\n",
                 i ? "," : "", s.name, pid, (s.t0 - base) * 1e6,
                 (s.t1 - s.t0) * 1e6, static_cast<unsigned long long>(s.req),
                 i,
                 s.parent == SIZE_MAX ? -1LL : static_cast<long long>(s.parent));
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

// --- processes -----------------------------------------------------------------

std::string inChild(const std::function<std::string()>& fn) {
  int fds[2];
  if (::pipe(fds) != 0)
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    ::close(fds[0]);
    std::string out;
    int code = 0;
    try {
      out = fn();
    } catch (const std::exception& e) {
      out = e.what();
      code = 1;
    }
    const char* p = out.data();
    std::size_t left = out.size();
    while (left > 0) {
      const ssize_t w = ::write(fds[1], p, left);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) break;
      p += w;
      left -= static_cast<std::size_t>(w);
    }
    ::close(fds[1]);
    std::fflush(stdout);
    std::fflush(stderr);
    ::_exit(code);
  }
  ::close(fds[1]);
  std::string out;
  char buf[65536];
  while (true) {
    const ssize_t r = ::read(fds[0], buf, sizeof(buf));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    out.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("child process failed: " + out);
  return out;
}

std::string pinToCpus(unsigned n) {
  cpu_set_t allowed, pinned;
  CPU_ZERO(&pinned);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
    throw std::runtime_error(std::string("sched_getaffinity: ") +
                             std::strerror(errno));
  std::string cpus;
  for (int c = 0; c < CPU_SETSIZE && n > 0; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    CPU_SET(c, &pinned);
    if (!cpus.empty()) cpus += ',';
    cpus += std::to_string(c);
    --n;
  }
  if (::sched_setaffinity(0, sizeof(pinned), &pinned) != 0)
    throw std::runtime_error(std::string("sched_setaffinity: ") +
                             std::strerror(errno));
  return cpus;
}

double peakRssMb() {
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::vector<std::string> splitLines(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t e = s.find('\n', pos);
    if (e == std::string::npos) e = s.size();
    if (e > pos) out.push_back(s.substr(pos, e - pos));
    pos = e + 1;
  }
  return out;
}

std::vector<std::string> splitWords(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    while (pos < s.size() && s[pos] == ' ') ++pos;
    std::size_t e = s.find(' ', pos);
    if (e == std::string::npos) e = s.size();
    if (e > pos) out.push_back(s.substr(pos, e - pos));
    pos = e;
  }
  return out;
}

}  // namespace perfbench
