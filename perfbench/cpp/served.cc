// Served workloads: an RtCluster behind an RpcServer on a Unix-domain
// socket, driven in the same process by the benchmark's own open-loop
// Poisson generator (one thread, one connection; a second connection only
// carries probes in traced runs).  rpc/loadgen is deliberately not reused,
// so a change to it cannot move this yardstick.
//
// Each run has two phases at fixed offered rates: a light phase that gives
// latency and the failure share, and an overload phase that gives goodput.
// Every request is timed from the moment it was due, not from when it was
// sent, so a stalled generator or server shows up as latency.
#include <sys/prctl.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unistd.h>
#include <vector>

#include "bench.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "rpc/wire.h"
#include "rt/rt_cluster.h"
#include "sim/rng.h"
#include "stats/counters.h"

namespace perfbench {
namespace {

using namespace opc;

struct ServedSpec {
  double disk_bytes_per_second;
  std::uint32_t participants;  // creates: 2 = kCreate, 3 = kCreateSpread
  double zipf_s;               // directory skew; 0 = uniform
  double w_create, w_mkdir, w_rename;
  double light_rate, overload_rate;  // offered ops/s
};

constexpr std::uint32_t kNodes = 3;
constexpr std::uint32_t kDirs = 3;
constexpr std::uint32_t kMaxInflight = 1024;
/// Past this many unanswered requests the generator skips an arrival
/// instead of queueing without bound; any skip invalidates the run.
constexpr std::size_t kMaxOutstanding = 65536;
/// A phase whose sends ran later than this at the median measured a
/// generator that could not keep its schedule, not the server: the run is
/// reported invalid.  The median, because a host stall of a few ms delays
/// a burst of sends (the p99) without the generator falling behind.
constexpr double kGenLateP50BoundMs = 1.0;
constexpr double kDrainTimeoutS = 20.0;

ServedSpec spec_for(const std::string& workload) {
  if (workload == "serve-hotdir") {
    // Forced writes held under a hot directory's lock: 32 MiB/s log
    // devices, wide creates (1PC degrades them to presumed-abort), Zipf
    // 1.1 over the directories and a rename-heavy mix.
    return {32.0 * 1024 * 1024, 3, 1.1, 0.6, 0.1, 0.3, 600.0, 3000.0};
  }
  // serve-1pc: the `opc serve` defaults; commits are cheap, so the ingress
  // and the cross-thread hops set latency and capacity.
  return {2.0 * 1024 * 1024 * 1024, 2, 0.0, 0.8, 0.1, 0.1, 3000.0, 20000.0};
}

class ZipfPicker {
 public:
  ZipfPicker(std::uint32_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::uint32_t k = 1; k <= n; ++k) {
      total += s == 0.0 ? 1.0 : 1.0 / std::pow(static_cast<double>(k), s);
      cdf_[k - 1] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  [[nodiscard]] std::uint64_t pick(double u01) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u01);
    return static_cast<std::uint64_t>(
               std::min<std::ptrdiff_t>(it - cdf_.begin(),
                                        static_cast<std::ptrdiff_t>(cdf_.size()) - 1)) +
           1;
  }

 private:
  std::vector<double> cdf_;
};

std::string entry_name(char prefix, std::uint64_t seq) {
  std::string s(1, prefix);
  s += std::to_string(seq);
  return s;
}

/// The system under test, built and torn down as one unit.
struct Stack {
  std::unique_ptr<RtCluster> cluster;
  std::unique_ptr<rpc::RpcServer> server;

  Stack(const ServedSpec& spec, std::uint64_t seed, const std::string& sock) {
    RtClusterConfig cfg;
    cfg.protocol = ProtocolKind::kOnePC;
    cfg.n_nodes = kNodes;
    cfg.seed = seed;
    cfg.net.latency = Duration::zero();
    cfg.disk.bytes_per_second = spec.disk_bytes_per_second;
    cfg.wal.force_pad_to = 8192;
    cluster = std::make_unique<RtCluster>(cfg);
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      cluster->bootstrap_directory(ObjectId(i + 1), NodeId(i));
    }
    rpc::RpcServerConfig scfg;
    scfg.uds_path = sock;
    scfg.max_inflight = kMaxInflight;
    server = std::make_unique<rpc::RpcServer>(*cluster, scfg);
  }

  /// Drains admitted work and stops every thread the stack started.
  void stop() {
    server->stop();
    cluster->env().wait_idle();
  }
};

// ---------------------------------------------------------------------------
// Probes (traced runs only): a second connection pings the server, and
// RtEnv posts and 1 ms timers measure the cross-thread hop and timer slip.
// ---------------------------------------------------------------------------

struct ProbeSink {
  std::mutex mu;
  std::vector<std::vector<double>> post_wait_us;  // per worker
  std::vector<double> timer_late_us;
  std::vector<double> ping_rtt_us;
  explicit ProbeSink(std::uint32_t workers) : post_wait_us(workers) {}
};

void probe_loop(RtEnv& env, const std::string& sock, ProbeSink& sink,
                SpanLog& spans, const std::atomic<bool>& stop,
                std::string& error) {
  rpc::RpcClient ping;
  if (!ping.connect_uds(sock)) {
    error = "probe connect: " + ping.error();
    return;
  }
  const std::uint32_t workers = env.workers();
  while (!stop.load(std::memory_order_relaxed)) {
    const std::int64_t t0 = now_ns();
    rpc::Reply r;
    if (!ping.call_ping(r, 5.0)) {
      error = "probe ping: " + ping.error();
      return;
    }
    const std::int64_t t1 = now_ns();
    {
      std::lock_guard<std::mutex> lk(sink.mu);
      sink.ping_rtt_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    }
    spans.add("probe.ping", spans.next_id(), 0, t0, t1, 1);
    for (std::uint32_t w = 0; w < workers; ++w) {
      const SimTime posted = env.now();
      env.post(w, [&env, &sink, w, posted] {
        const double us = (env.now() - posted).to_micros_f();
        std::lock_guard<std::mutex> lk(sink.mu);
        sink.post_wait_us[w].push_back(us);
      });
    }
    const std::uint32_t w = static_cast<std::uint32_t>(t0 % workers);
    const SimTime due = env.now() + Duration::millis(1);
    env.schedule_on(w, due, [&env, &sink, due] {
      const double us = (env.now() - due).to_micros_f();
      std::lock_guard<std::mutex> lk(sink.mu);
      sink.timer_late_us.push_back(us);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

// ---------------------------------------------------------------------------
// The generator.
// ---------------------------------------------------------------------------

enum class Op : std::uint8_t { kCreate, kMkdir, kRename };

struct Pending {
  double due = 0.0;
  std::uint64_t dir = 0;
  std::uint64_t span = 0;  // sampled request span id, 0 = not sampled
  std::string name;        // the name that exists after an OK reply
};

/// A request frame as sent, kept (traced runs) to time the wire codec on
/// the workload's own frames afterwards.
struct SentFrame {
  Op op;
  std::uint64_t dir;
  std::string src;
  std::string name;
  std::uint8_t width;
};

struct PhaseCounts {
  std::uint64_t sent = 0, ok = 0, aborted = 0, busy = 0, not_found = 0,
                bad_request = 0, timeouts = 0, shutdown = 0, skipped = 0;
  std::vector<double> latency_ms;  // due -> OK/ABORTED reply
  std::vector<double> late_ms;     // due -> send
};

/// Everything the correctness checks look at.
struct ServedOutcome {
  PhaseCounts phase[2];
  std::uint64_t lost = 0;
  std::uint64_t transport_errors = 0;
  std::uint64_t client_ok = 0;        // all OK replies, setup creates included
  std::uint64_t engine_committed = 0;  // sum over nodes after drain
  std::uint64_t engine_aborted = 0;
  std::size_t invariant_violations = 0;
  std::uint64_t setup_failures = 0;
  std::string error;
};

void check_served(const ServedOutcome& o, Result& out) {
  const PhaseCounts& l = o.phase[0];
  out.check(o.setup_failures == 0, "setup: a fresh stack did not serve its first create");
  out.check(o.transport_errors == 0, "transport error: " + o.error);
  out.check(o.lost == 0, "lost replies: " + std::to_string(o.lost));
  std::uint64_t bad = 0;
  for (const PhaseCounts& p : o.phase) {
    bad += p.not_found + p.bad_request + p.timeouts + p.shutdown;
  }
  out.check(bad == 0, "error replies (not-found/bad-request/timeout/shutdown): " +
                          std::to_string(bad));
  out.check(o.client_ok == o.engine_committed,
            "client OK count " + std::to_string(o.client_ok) +
                " != engines' commit count " + std::to_string(o.engine_committed));
  out.check(o.invariant_violations == 0,
            "RtCluster::check_invariants: " +
                std::to_string(o.invariant_violations) + " violation(s)");
  std::uint64_t skipped = 0;
  for (const PhaseCounts& p : o.phase) skipped += p.skipped;
  out.check(skipped == 0, "invalid run: generator skipped " +
                              std::to_string(skipped) + " arrival(s)");
  for (int ph = 0; ph < 2; ++ph) {
    const double late_p50 = quantile(o.phase[ph].late_ms, 0.50);
    out.check(late_p50 <= kGenLateP50BoundMs,
              std::string("invalid run: generator fell behind in the ") +
                  (ph == 0 ? "light" : "overload") + " phase (late p50 " +
                  std::to_string(late_p50) + " ms > " +
                  std::to_string(kGenLateP50BoundMs) + " ms)");
  }
  out.check(!l.latency_ms.empty() && o.phase[1].ok > 0,
            "no OK replies in a phase");
}

/// Broken copies of a passing outcome, one per check (`check_the_checks`).
BrokenCopies<ServedOutcome> broken_copies(const ServedOutcome& good) {
  BrokenCopies<ServedOutcome> v(good);
  v.add("setup", [](ServedOutcome& b) { b.setup_failures = 1; });
  v.add("transport", [](ServedOutcome& b) { b.transport_errors = 1; });
  v.add("lost", [](ServedOutcome& b) { b.lost = 1; });
  v.add("error replies", [](ServedOutcome& b) { b.phase[1].not_found = 1; });
  v.add("ok==commits", [](ServedOutcome& b) { b.engine_committed += 1; });
  v.add("invariants", [](ServedOutcome& b) { b.invariant_violations = 1; });
  v.add("skipped", [](ServedOutcome& b) { b.phase[1].skipped = 1; });
  v.add("generator late", [](ServedOutcome& b) {
    for (double& x : b.phase[1].late_ms) x += 2 * kGenLateP50BoundMs;
  });
  v.add("empty phase", [](ServedOutcome& b) { b.phase[1].ok = 0; });
  return v;
}

/// Drives one workload run: a series of segments, each on a freshly built
/// stack.  The light phase is split into kLightSegments segments because
/// on a small VM light-load latency depends on where the scheduler places
/// the stack's threads, and that placement is fixed for a stack's
/// lifetime: one stack gives one draw, several give a median.
class ServedRun {
 public:
  ServedRun(const Options& opt, const ServedSpec& spec)
      : opt_(opt), spec_(spec),
        sock_(opt.scratch_dir + "/pb-" + std::to_string(::getpid()) + ".sock"),
        rng_(opt.seed, /*stream=*/0x5e57), zipf_(kDirs, spec.zipf_s),
        spans_(opt.trace), probe_spans_(opt.trace), sink_(kNodes) {
    run_span_ = spans_.next_id();
  }

  void run(Result& out) {
    // Set-up alone, a few times; every segment's build is timed too.
    for (int i = 0; i < kSetupOnly && o_.setup_failures == 0; ++i) {
      std::unique_ptr<Stack> stack;
      std::unique_ptr<rpc::RpcClient> c;
      if (build(stack, c)) finish(*stack, *c);
    }
    const double light_s = opt_.seconds * 0.5 / kLightSegments;
    for (int i = 0; i < kLightSegments && o_.setup_failures == 0; ++i) {
      segment(0, spec_.light_rate, light_s);
    }
    if (o_.setup_failures == 0) segment(1, spec_.overload_rate, opt_.seconds * 0.5);
    report(out);
  }

 private:
  /// Builds a stack and serves its first create; false (and counted) on
  /// failure.
  bool build(std::unique_ptr<Stack>& stack, std::unique_ptr<rpc::RpcClient>& c) {
    const std::int64_t t0 = now_ns();
    stack = std::make_unique<Stack>(spec_, opt_.seed, sock_);
    c = std::make_unique<rpc::RpcClient>();
    rpc::Reply r;
    const bool ok = stack->server->start() && c->connect_uds(sock_) &&
                    c->call_create(1, "setup", false, r, 10.0) &&
                    r.status == rpc::Status::kOk;
    const std::int64_t t1 = now_ns();
    if (!ok) {
      ++o_.setup_failures;
      o_.error = c->error();
      c.reset();
      stack->stop();
      return false;
    }
    ++o_.client_ok;
    setup_s_.push_back(static_cast<double>(t1 - t0) / 1e9);
    spans_.add("setup", spans_.next_id(), run_span_, t0, t1);
    return true;
  }

  /// Stops the stack and folds its quiescent state into the outcome.
  void finish(Stack& stack, rpc::RpcClient& c) {
    c.close();
    stack.stop();
    RtCluster& cluster = *stack.cluster;
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      MdsNode& n = cluster.node(NodeId(i));
      o_.engine_committed += n.engine().committed_count();
      o_.engine_aborted += n.engine().aborted_count();
      commit_lat_.merge(n.engine().client_latency());
      lock_wait_.merge(n.locks().wait_times());
      disk_busy_s_[i] += n.wal().partition().device().busy_time().to_seconds_f();
    }
    std::vector<ObjectId> roots;
    for (std::uint32_t i = 0; i < kDirs; ++i) roots.emplace_back(i + 1);
    o_.invariant_violations += cluster.check_invariants(roots).size();
  }

  void segment(int ph, double rate, double seconds) {
    std::unique_ptr<Stack> stack;
    std::unique_ptr<rpc::RpcClient> client;
    if (!build(stack, client)) return;
    rpc::RpcClient& c = *client;
    std::atomic<bool> probe_stop{false};
    std::thread probe;
    if (opt_.trace) {
      probe = std::thread(probe_loop, std::ref(stack->cluster->env()),
                          std::cref(sock_), std::ref(sink_),
                          std::ref(probe_spans_), std::cref(probe_stop),
                          std::ref(probe_error_));
    }

    PhaseCounts& pc = o_.phase[ph];
    std::unordered_map<std::uint64_t, Pending> pending;
    pending.reserve(1 << 16);
    std::vector<std::vector<std::string>> confirmed(kDirs + 1);
    std::vector<double> seg_latency;
    const double start = now_s() + 0.05;  // probe connected, caches warm
    const double end = start + seconds;
    // Goodput skips the first quarter of the overload phase (the ramp).
    const double window_start = start + 0.25 * seconds;
    bool broken = false;

    auto consume = [&](const rpc::Reply& rep) {
      const auto it = pending.find(rep.id);
      if (it == pending.end()) return;
      Pending& p = it->second;
      const double t = now_s();
      switch (rep.status) {
        case rpc::Status::kOk:
          ++pc.ok;
          ++o_.client_ok;
          if (ph == 0) seg_latency.push_back((t - p.due) * 1e3);
          if (ph == 1 && t >= window_start && t < end) ++goodput_ok_;
          confirmed[p.dir].push_back(std::move(p.name));
          break;
        case rpc::Status::kAborted:
          ++pc.aborted;
          if (ph == 0) seg_latency.push_back((t - p.due) * 1e3);
          break;
        case rpc::Status::kBusy: ++pc.busy; break;
        case rpc::Status::kNotFound: ++pc.not_found; break;
        case rpc::Status::kBadRequest: ++pc.bad_request; break;
        case rpc::Status::kTimeout: ++pc.timeouts; break;
        case rpc::Status::kShutdown: ++pc.shutdown; break;
      }
      if (p.span != 0) {
        spans_.add("request", p.span, run_span_,
                   static_cast<std::int64_t>(p.due * 1e9),
                   static_cast<std::int64_t>(t * 1e9));
      }
      if (opt_.trace && replies_.size() < kKeptFrames) replies_.push_back(rep);
      pending.erase(it);
    };

    // Pushes buffered requests, then receives replies until `until` (wall
    // seconds).  False on a broken socket.
    auto wait_until = [&](double until) {
      if (!c.flush(1.0) && c.broken()) return false;
      while (true) {
        const double rem = until - now_s();
        if (rem <= 0) return true;
        rpc::Reply rep;
        // poll() rounds its timeout up to whole milliseconds, so block in
        // the socket only while more than 2 ms remain, then sleep in short
        // steps.  Sleeping rather than spinning keeps the generator off the
        // CPUs the server's threads wake on.
        const double block = rem > 0.002 ? rem - 0.0015 : 0.0;
        if (c.recv_reply(rep, block)) {
          consume(rep);
          continue;
        }
        if (c.broken()) return false;
        if (block == 0.0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(std::min(rem, 200e-6)));
        }
      }
    };
    // While behind schedule, requests are buffered and flushed in batches;
    // replies that arrived meanwhile are consumed after each flush.
    auto flush_batch = [&] {
      if (!c.flush(1.0) && c.broken()) return false;
      rpc::Reply rep;
      while (c.recv_reply(rep, 0.0)) consume(rep);
      return !c.broken();
    };

    const std::int64_t seg0 = now_ns();
    double due = start;
    while (true) {
      due += -std::log(1.0 - rng_.uniform01()) / rate;
      if (due >= end) break;
      // The op and its target are drawn before waiting, so the input
      // stream is a pure function of the seed up to which names exist.
      const double u = rng_.uniform01() * (spec_.w_create + spec_.w_mkdir +
                                           spec_.w_rename);
      const std::uint64_t dir = zipf_.pick(rng_.uniform01());
      if (due > now_s() ? !wait_until(due)
                        : (pc.sent % 32 == 0 && !flush_batch())) {
        broken = true;
        break;
      }
      pc.late_ms.push_back((now_s() - due) * 1e3);
      if (pending.size() >= kMaxOutstanding) {
        ++pc.skipped;
        continue;
      }
      Pending p;
      p.due = due;
      p.dir = dir;
      SentFrame f{Op::kCreate, dir, {}, {}, 0};
      std::uint64_t id = 0;
      const std::int64_t enc0 = now_ns();
      auto& names = confirmed[dir];
      if (u >= spec_.w_create + spec_.w_mkdir && !names.empty()) {
        f.op = Op::kRename;
        f.src = std::move(names.back());
        names.pop_back();
        p.name = entry_name('r', seq_++);
        id = c.send_rename(dir, f.src, dir, p.name);
      } else if (u >= spec_.w_create && u < spec_.w_create + spec_.w_mkdir) {
        f.op = Op::kMkdir;
        p.name = entry_name('d', seq_++);
        id = c.send_create(dir, p.name, /*is_dir=*/true);
      } else {
        // Creates, and renames in a directory with no acknowledged name yet.
        p.name = entry_name('f', seq_++);
        if (spec_.participants > 2) {
          f.width = static_cast<std::uint8_t>(spec_.participants);
          id = c.send_create_spread(dir, p.name, f.width);
        } else {
          id = c.send_create(dir, p.name, false);
        }
      }
      if (opt_.trace && id % 16 == 0) {
        p.span = spans_.next_id();
        spans_.add("gen.encode", spans_.next_id(), p.span, enc0, now_ns());
      }
      if (opt_.trace && frames_.size() < kKeptFrames) {
        f.name = p.name;
        frames_.push_back(std::move(f));
      }
      ++pc.sent;
      pending.emplace(id, std::move(p));
    }
    if (!broken && !flush_batch()) broken = true;
    const double seg_wall = now_s() - start;
    spans_.add(ph == 0 ? "phase.light" : "phase.overload", spans_.next_id(),
               run_span_, seg0, now_ns());
    if (ph == 1) goodput_window_s_ = end - window_start;

    const double drain_end = now_s() + kDrainTimeoutS;
    while (!broken && !pending.empty() && now_s() < drain_end) {
      rpc::Reply rep;
      if (c.recv_reply(rep, std::min(1.0, drain_end - now_s()))) {
        consume(rep);
      } else if (c.broken()) {
        broken = true;
      }
    }
    if (broken) {
      ++o_.transport_errors;
      o_.error = c.error();
    }
    o_.lost += pending.size();
    probe_stop.store(true);
    if (probe.joinable()) probe.join();

    if (ph == 0) {
      seg_p50_.push_back(quantile(seg_latency, 0.50));
      seg_p95_.push_back(quantile(seg_latency, 0.95));
      seg_p99_.push_back(quantile(seg_latency, 0.99));
      pc.latency_ms.insert(pc.latency_ms.end(), seg_latency.begin(),
                           seg_latency.end());
    } else {
      StatsRegistry rpc_stats;
      stack->server->export_stats(rpc_stats);
      overload_requests_ = rpc_stats.get("rpc.requests");
      overload_busy_ = rpc_stats.get("rpc.busy");
    }
    std::array<double, kNodes> before = disk_busy_s_;
    finish(*stack, c);
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      disk_util_ = std::max(disk_util_, (disk_busy_s_[i] - before[i]) / seg_wall);
    }
  }

  void report(Result& out) {
    if (!probe_error_.empty()) {
      ++o_.transport_errors;
      o_.error += (o_.error.empty() ? "" : "; ") + probe_error_;
    }
    const PhaseCounts& l = o_.phase[0];
    const PhaseCounts& v = o_.phase[1];
    out.add_e2e("setup_s", median(setup_s_), "s");
    out.add_e2e("peak_rss_mb", peak_rss_mb(), "MB");
    out.add_e2e("latency_ms", median(seg_p50_), "ms");
    out.add_e2e("ok_frac",
                l.sent ? static_cast<double>(l.ok) / static_cast<double>(l.sent) : 0.0,
                "ratio");
    out.add_e2e("goodput_ops_s",
                goodput_window_s_ > 0 ? static_cast<double>(goodput_ok_) / goodput_window_s_
                                      : 0.0,
                "1/s");
    out.attempted = l.sent + v.sent;
    out.failed = o_.lost + o_.transport_errors;
    for (const PhaseCounts& p : o_.phase) {
      out.failed += p.not_found + p.bad_request + p.timeouts + p.shutdown;
    }

    for (int ph = 0; ph < 2; ++ph) {
      const PhaseCounts& p = o_.phase[ph];
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "%s phase @ %.0f/s: sent %llu ok %llu aborted %llu busy "
                    "%llu not_found %llu skipped %llu; gen late p50 %.3f "
                    "p99 %.3f max %.3f ms",
                    ph == 0 ? "light" : "overload",
                    ph == 0 ? spec_.light_rate : spec_.overload_rate,
                    static_cast<unsigned long long>(p.sent),
                    static_cast<unsigned long long>(p.ok),
                    static_cast<unsigned long long>(p.aborted),
                    static_cast<unsigned long long>(p.busy),
                    static_cast<unsigned long long>(p.not_found),
                    static_cast<unsigned long long>(p.skipped),
                    quantile(p.late_ms, 0.5), quantile(p.late_ms, 0.99),
                    quantile(p.late_ms, 1.0));
      out.notes.emplace_back(buf);
    }
    auto fmt = [](const std::vector<double>& v) {
      std::string s;
      for (double x : v) {
        if (!s.empty()) s += ' ';
        s += std::to_string(x);
      }
      return s;
    };
    // The tail is printed, not gated: on a shared 4-vCPU VM the light
    // phase's p95 moved by up to 0.27 (quartile spread over median) between
    // identical runs, more than any end-to-end bound allows.
    out.notes.push_back("light-phase latency, " + std::to_string(l.latency_ms.size()) +
                        " samples in " + std::to_string(seg_p50_.size()) +
                        " segments: median p95 " + std::to_string(median(seg_p95_)) +
                        " ms, median p99 " + std::to_string(median(seg_p99_)) +
                        " ms; per-segment p50 ms: " + fmt(seg_p50_) +
                        "; p95: " + fmt(seg_p95_) + "; p99: " + fmt(seg_p99_));
    out.notes.push_back(
        "fail_frac (light) = " +
        std::to_string(l.sent ? 1.0 - static_cast<double>(l.ok) /
                                          static_cast<double>(l.sent)
                              : 0.0) +
        "; goodput: " + std::to_string(goodput_ok_) + " OK replies in " +
        std::to_string(goodput_window_s_) + " s; set-up samples " +
        std::to_string(setup_s_.size()));

    if (opt_.trace) report_layers(out);
    check_served(o_, out);
    if (opt_.check_the_checks) broken_copies(o_).verify(check_served, out);
  }

  void report_layers(Result& out) {
    // Wire codec on this run's own frames.
    rpc::WireBuf buf;
    std::uint64_t n_frames = 0;
    const int reps = 20;
    const std::int64_t e0 = now_ns();
    for (int r = 0; r < reps; ++r) {
      buf.clear();
      std::uint64_t id = 1;
      for (const SentFrame& f : frames_) {
        switch (f.op) {
          case Op::kRename:
            rpc::encode_rename(buf, id++, f.dir, f.src, f.dir, f.name);
            break;
          case Op::kMkdir:
            rpc::encode_create(buf, id++, f.dir, f.name, true);
            break;
          case Op::kCreate:
            if (f.width > 2) {
              rpc::encode_create_spread(buf, id++, f.dir, f.name, f.width);
            } else {
              rpc::encode_create(buf, id++, f.dir, f.name, false);
            }
            break;
        }
      }
      for (const rpc::Reply& rep : replies_) rpc::encode_reply(buf, rep);
      n_frames += frames_.size() + replies_.size();
    }
    const std::int64_t e1 = now_ns();
    std::uint64_t decoded = 0;
    for (int r = 0; r < reps; ++r) {
      std::size_t off = 0;
      while (off < buf.bytes.size()) {
        const rpc::Decoded d =
            rpc::decode_frame(buf.bytes.data() + off, buf.bytes.size() - off);
        if (d.status != rpc::DecodeStatus::kRequest &&
            d.status != rpc::DecodeStatus::kReply) {
          break;
        }
        off += d.consumed;
        ++decoded;
      }
    }
    const std::int64_t e2 = now_ns();
    out.check(decoded == n_frames,
              "wire: decoded " + std::to_string(decoded) + " of " +
                  std::to_string(n_frames) + " re-encoded frames");

    double post_p50 = 0.0, post_p99 = 0.0;
    for (const auto& w : sink_.post_wait_us) {
      post_p50 = std::max(post_p50, quantile(w, 0.5));
      post_p99 = std::max(post_p99, quantile(w, 0.99));
    }
    const PhaseCounts& l = o_.phase[0];
    const PhaseCounts& v = o_.phase[1];
    std::vector<double> gen_late = l.late_ms;
    gen_late.insert(gen_late.end(), v.late_ms.begin(), v.late_ms.end());
    const double commits = static_cast<double>(o_.engine_committed);
    const double decided = static_cast<double>(o_.engine_committed + o_.engine_aborted);
    out.add_layer("rpc.ping_rtt_us.p50", quantile(sink_.ping_rtt_us, 0.5), "us");
    out.add_layer("rpc.ping_rtt_us.p99", quantile(sink_.ping_rtt_us, 0.99), "us");
    out.add_layer("rpc.wire.encode_ns",
                  n_frames ? static_cast<double>(e1 - e0) / static_cast<double>(n_frames) : 0.0,
                  "ns");
    out.add_layer("rpc.wire.decode_ns",
                  decoded ? static_cast<double>(e2 - e1) / static_cast<double>(decoded) : 0.0,
                  "ns");
    out.add_layer("rpc.busy_frac",
                  overload_requests_ > 0 ? static_cast<double>(overload_busy_) /
                                               static_cast<double>(overload_requests_)
                                         : 0.0,
                  "ratio");
    out.add_layer("rt.post_wait_us.p50", post_p50, "us");
    out.add_layer("rt.post_wait_us.p99", post_p99, "us");
    out.add_layer("rt.timer_late_us.p99", quantile(sink_.timer_late_us, 0.99), "us");
    out.add_layer("acp.commit_us.p50", commit_lat_.quantile(0.5) / 1e3, "us");
    out.add_layer("acp.commit_us.p99", commit_lat_.quantile(0.99) / 1e3, "us");
    out.add_layer("acp.abort_frac",
                  decided > 0 ? static_cast<double>(o_.engine_aborted) / decided : 0.0,
                  "ratio");
    out.add_layer("lock.wait_us.p50", lock_wait_.quantile(0.5) / 1e3, "us");
    out.add_layer("lock.wait_us.p99", lock_wait_.quantile(0.99) / 1e3, "us");
    out.add_layer("lock.waits_per_commit",
                  commits > 0 ? static_cast<double>(lock_wait_.count()) / commits : 0.0,
                  "count");
    out.add_layer("disk.util", disk_util_, "ratio");
    out.add_layer("gen.late_ms.p99", quantile(gen_late, 0.99), "ms");
    out.add_layer("gen.late_ms.max", quantile(gen_late, 1.0), "ms");
    out.add_layer("gen.skipped", static_cast<double>(l.skipped + v.skipped), "count");
    out.notes.push_back("probes: " + std::to_string(sink_.ping_rtt_us.size()) +
                        " pings, " + std::to_string(sink_.timer_late_us.size()) +
                        " timers; wire timed on " + std::to_string(frames_.size()) +
                        " request + " + std::to_string(replies_.size()) +
                        " reply frames x " + std::to_string(reps));
    spans_.append(probe_spans_);
    write_spans(opt_, spans_, out);
  }

  static constexpr int kSetupOnly = 15;
  static constexpr int kLightSegments = 10;
  static constexpr std::size_t kKeptFrames = 20000;

  const Options& opt_;
  const ServedSpec spec_;
  const std::string sock_;
  Rng rng_;
  const ZipfPicker zipf_;
  SpanLog spans_;
  SpanLog probe_spans_;
  ProbeSink sink_;
  std::string probe_error_;
  std::uint64_t run_span_ = 0;
  std::uint64_t seq_ = 0;

  ServedOutcome o_;
  std::vector<double> setup_s_;
  std::vector<double> seg_p50_, seg_p95_, seg_p99_;
  std::uint64_t goodput_ok_ = 0;
  double goodput_window_s_ = 0.0;
  std::int64_t overload_requests_ = 0, overload_busy_ = 0;
  Histogram commit_lat_;
  Histogram lock_wait_;
  std::array<double, kNodes> disk_busy_s_{};
  double disk_util_ = 0.0;
  std::vector<SentFrame> frames_;
  std::vector<rpc::Reply> replies_;
};

}  // namespace

void run_served(const Options& opt, Result& out) {
  // Fine-grained sleeps for the generator thread: the default 50 us timer
  // slack would be a visible share of a 333 us arrival gap.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  ServedRun d(opt, spec_for(opt.workload));
  d.run(out);
}

}  // namespace perfbench
