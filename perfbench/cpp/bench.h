// Shared pieces of the repo benchmark: options, the result every workload
// fills in, percentile helpers, the span recorder used by traced runs, the
// broken-outcome harness for the correctness checks, and the process
// probes (peak RSS, heap allocations, host speed).
//
// Every timing here is taken from outside the layer it measures, by timing
// calls into the layer's public functions; nothing under src/ is
// instrumented for the benchmark.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (relative to the working directory) for sockets and span
  /// files; the runner points it at the build directory.
  std::string scratch_dir = ".bench_build";
  /// Re-runs every correctness check on deliberately broken copies of the
  /// run's outcome and fails unless each check rejects its broken copy.
  bool check_the_checks = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced.  `e2e` is measured on every run;
/// `layer` only on traced runs.
struct Result {
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One line per failed correctness check.  Empty means correct.
  std::vector<std::string> failures;
  /// Human-readable lines printed before the result (sample counts, hashes).
  std::vector<std::string> notes;

  void add_e2e(std::string name, double v, std::string unit) {
    e2e.push_back({std::move(name), v, std::move(unit)});
  }
  void add_layer(std::string name, double v, std::string unit) {
    layer.push_back({std::move(name), v, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

using Clock = std::chrono::steady_clock;

inline double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Exact quantile (nearest rank) of an unsorted sample; 0 when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) +
                                    0.5);
  k = std::min(k, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Spans recorded from the benchmark's own code around calls into a layer:
/// name, start, end, and the span that caused it.  Spans of one request
/// share `id`.  Kept in memory, written once when the run ends.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;  // 0 = root
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t thread;
  };

  explicit SpanLog(bool on, std::size_t cap = 200000) : on_(on), cap_(cap) {
    if (on_) spans_.reserve(std::min<std::size_t>(cap_, 65536));
  }

  /// Returns a fresh span id (also when off, so callers need no branch).
  std::uint64_t next_id() { return ++last_id_; }

  void add(const char* name, std::uint64_t id, std::uint64_t parent,
           std::int64_t start_ns, std::int64_t end_ns,
           std::uint32_t thread = 0) {
    if (!on_ || spans_.size() >= cap_) return;
    spans_.push_back({name, id, parent, start_ns, end_ns, thread});
  }

  void append(const SpanLog& other) {
    for (const Span& s : other.spans_) {
      if (spans_.size() >= cap_) break;
      spans_.push_back(s);
    }
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes Chrome trace-event JSON ("X" events, microseconds).
  [[nodiscard]] bool write_chrome(const std::string& path) const;

 private:
  bool on_;
  std::size_t cap_;
  std::uint64_t last_id_ = 0;
  std::vector<Span> spans_;
};

/// Broken copies of a passing outcome, one per correctness check, for
/// Options::check_the_checks.
template <typename Outcome>
class BrokenCopies {
 public:
  explicit BrokenCopies(const Outcome& good) : good_(good) {}
  template <typename Mutate>
  void add(const char* what, Mutate mutate) {
    Outcome b = good_;
    mutate(b);
    copies_.emplace_back(what, std::move(b));
  }

  /// Runs `check` on every copy; each must be rejected.
  template <typename Check>
  void verify(Check check, Result& out) const {
    for (const auto& [what, b] : copies_) {
      Result r;
      check(b, r);
      out.check(!r.failures.empty(),
                std::string("check-the-checks: broken '") + what +
                    "' was not rejected");
    }
    out.notes.push_back("check-the-checks: " + std::to_string(copies_.size()) +
                        " broken outcomes tried");
  }

 private:
  const Outcome& good_;
  std::vector<std::pair<const char*, Outcome>> copies_;
};

/// Writes a traced run's spans next to the build and notes where.
void write_spans(const Options& opt, const SpanLog& spans, Result& out);

/// Peak resident set of this process so far, in MiB (VmHWM).
double peak_rss_mb();

/// How much slower this host runs right now than the reference host, from
/// one short fixed CPU-bound kernel (hash-map churn and allocation, the
/// simulator's dominant pattern).  The kernel lives here, not in src/, so
/// no change to the repo's code can move it.  The CPU-bound workloads call
/// it between units of work and divide each unit's wall time by it: the
/// VM's CPU speed drifts by up to +-30% from run to run, and the ratio
/// removes most of that drift.  Takes about 3 ms.
double host_slowdown();

/// Per-unit wall times of a CPU-bound workload, rescaled to the reference
/// host: after every `block_ms` of raw time the pending units are divided
/// by a fresh host_slowdown() reading.
class HostScaled {
 public:
  explicit HostScaled(double block_ms) : block_ms_(block_ms) {}

  void add(double raw_ms) {
    pending_.push_back(raw_ms);
    pending_ms_ += raw_ms;
    if (pending_ms_ >= block_ms_) flush();
  }
  void flush() {
    if (pending_.empty()) return;
    const double slow = host_slowdown();
    for (const double ms : pending_) {
      scaled_.push_back(ms / slow);
      scaled_total_ms_ += ms / slow;
      raw_total_ms_ += ms;
    }
    pending_.clear();
    pending_ms_ = 0.0;
  }

  /// Call flush() first.
  [[nodiscard]] const std::vector<double>& scaled() const { return scaled_; }
  [[nodiscard]] double scaled_total_ms() const { return scaled_total_ms_; }
  [[nodiscard]] double raw_total_ms() const { return raw_total_ms_; }

 private:
  double block_ms_;
  std::vector<double> pending_;
  double pending_ms_ = 0.0;
  std::vector<double> scaled_;
  double scaled_total_ms_ = 0.0;
  double raw_total_ms_ = 0.0;
};

/// Heap allocations made by the calling thread since it started.
std::uint64_t thread_allocations();

/// Workload entry points.  Each fills `out` and returns normally; a failed
/// correctness check is recorded in out.failures, not thrown.
void run_served(const Options& opt, Result& out);
void run_sim_storm(const Options& opt, Result& out);
void run_chaos(const Options& opt, Result& out);

}  // namespace perfbench
