// sim-storm: the paper's Fig. 6 create storm on the deterministic
// simulator, single-threaded, for PrN, PrC, EP and 1PC.
//
// One round runs each protocol once through run_create_storm() with
// paper_fig6_config() and its fixed simulated span (30 s, 5 s warm-up), on
// a fresh cluster every time, as `opc storm` does.  No threads or sockets
// take part, so the sim kernel, the simulated network, engine CPU and
// allocation set the wall time.  Traced runs additionally step a
// persistent Simulator/Cluster/CreateStormSource fixture window by window
// (the shape of the kernel benches) to attribute the wall time per event.
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "bench.h"
#include "cluster/cluster.h"
#include "core/experiment.h"
#include "mds/namespace.h"
#include "sim/simulator.h"
#include "stats/meter.h"
#include "workload/source.h"

namespace perfbench {
namespace {

using namespace opc;

struct ProtoRow {
  ProtocolKind proto;
  const char* key;
  // Paper Table I: forced log writes (sync, total over both MDSs) and
  // messages beyond the base UPDATE_REQ/UPDATED pair, per distributed
  // create.  The storm's counters must reproduce them exactly.
  int forces;
  int extra_msgs;
};

constexpr std::array<ProtoRow, 4> kRows = {{
    {ProtocolKind::kPrN, "prn", 5, 4},
    {ProtocolKind::kPrC, "prc", 4, 3},
    {ProtocolKind::kEP, "ep", 4, 1},
    {ProtocolKind::kOnePC, "1pc", 3, 1},
}};

// Fig. 6 creates per simulated second: the paper reports ~16.6 (PrN) and
// ~24.9 (1PC); the simulator measures 16.54 and 24.88.
constexpr double kPaperPrN = 16.6;
constexpr double kPaperOnePC = 24.9;
constexpr double kPaperTolerance = 0.02;  // relative

constexpr int kSetupRepeats = 32;

/// Persistent storm fixture: built once, then stepped over successive
/// windows of simulated time.
class StormFixture {
 public:
  StormFixture(ProtocolKind proto, std::uint64_t seed)
      : trace_(false), part_(2, NodeId(1)), planner_(part_, OpCosts{}) {
    const ExperimentConfig paper = paper_fig6_config(proto);
    ClusterConfig cc = paper.cluster;
    cc.seed = seed;
    cluster_ = std::make_unique<Cluster>(sim_, cc, stats_, trace_);
    dir_ = ids_.next();
    part_.assign(dir_, NodeId(0));
    cluster_->bootstrap_directory(dir_, NodeId(0));
    source_ = std::make_unique<CreateStormSource>(
        cluster_->env(), *cluster_, paper.source, meter_, stats_, planner_,
        ids_, dir_);
    source_->start();
  }

  /// Advances one window; returns kernel events dispatched in it.
  std::uint64_t step(Duration window) {
    const std::uint64_t ev0 = sim_.dispatched_events();
    deadline_ = deadline_ + window;
    sim_.run_until(deadline_);
    return sim_.dispatched_events() - ev0;
  }

  [[nodiscard]] std::uint64_t committed() const {
    return meter_.measured_events();
  }
  [[nodiscard]] Cluster& cluster() { return *cluster_; }

 private:
  Simulator sim_;
  StatsRegistry stats_;
  TraceRecorder trace_;
  std::unique_ptr<Cluster> cluster_;
  IdAllocator ids_;
  ObjectId dir_;
  PinnedPartitioner part_;
  NamespacePlanner planner_;
  ThroughputMeter meter_;
  std::unique_ptr<CreateStormSource> source_;
  SimTime deadline_ = SimTime::zero();
};

struct ProtoTotals {
  std::uint64_t committed = 0, aborted = 0, lost = 0, storms = 0;
  double wall_s = 0.0;
  double first_sim_ops = 0.0;  // creates per simulated second, first storm
  std::int64_t forces = 0, force_bytes = 0, msgs = 0;
  std::uint64_t violations = 0, non_serializable = 0;
  std::uint64_t hash_a = 0, hash_b = 0;  // traced storm, run twice
};

struct StormOutcome {
  std::array<ProtoTotals, 4> p;
};

void check_storm(const StormOutcome& o, Result& out) {
  for (std::size_t i = 0; i < kRows.size(); ++i) {
    const ProtoRow& row = kRows[i];
    const ProtoTotals& t = o.p[i];
    const std::string k = row.key;
    out.check(t.storms > 0 && t.committed > 0, k + ": no storm committed");
    out.check(t.aborted == 0 && t.lost == 0,
              k + ": aborted/lost transactions in a fault-free storm");
    out.check(t.violations == 0, k + ": invariant violations");
    out.check(t.non_serializable == 0, k + ": history not serializable");
    const double c = static_cast<double>(t.committed);
    out.check(static_cast<double>(t.forces) == c * row.forces,
              k + ": forced writes per commit " +
                  std::to_string(static_cast<double>(t.forces) / c) +
                  " != Table I " + std::to_string(row.forces));
    out.check(static_cast<double>(t.msgs) == c * (2 + row.extra_msgs),
              k + ": messages per commit " +
                  std::to_string(static_cast<double>(t.msgs) / c) +
                  " != Table I " + std::to_string(2 + row.extra_msgs));
    out.check(t.hash_a != 0 && t.hash_a == t.hash_b,
              k + ": trace hash differs across identical runs");
  }
  const auto near = [](double got, double want) {
    return std::fabs(got - want) <= kPaperTolerance * want;
  };
  out.check(near(o.p[0].first_sim_ops, kPaperPrN),
            "PrN creates/s " + std::to_string(o.p[0].first_sim_ops) +
                " not within 2% of the paper's " + std::to_string(kPaperPrN));
  out.check(near(o.p[3].first_sim_ops, kPaperOnePC),
            "1PC creates/s " + std::to_string(o.p[3].first_sim_ops) +
                " not within 2% of the paper's " + std::to_string(kPaperOnePC));
}

BrokenCopies<StormOutcome> broken_copies(const StormOutcome& good) {
  BrokenCopies<StormOutcome> v(good);
  v.add("no commits", [](StormOutcome& b) { b.p[1].committed = 0; });
  v.add("aborts", [](StormOutcome& b) { b.p[2].aborted = 1; });
  v.add("invariants", [](StormOutcome& b) { b.p[0].violations = 1; });
  v.add("serializability", [](StormOutcome& b) { b.p[3].non_serializable = 1; });
  v.add("forces", [](StormOutcome& b) { b.p[3].forces += 1; });
  v.add("messages", [](StormOutcome& b) { b.p[0].msgs += 1; });
  v.add("trace hash", [](StormOutcome& b) { b.p[1].hash_b ^= 1; });
  v.add("paper PrN", [](StormOutcome& b) { b.p[0].first_sim_ops *= 1.05; });
  v.add("paper 1PC", [](StormOutcome& b) { b.p[3].first_sim_ops *= 0.95; });
  return v;
}

ExperimentConfig storm_config(ProtocolKind proto, std::uint64_t seed) {
  ExperimentConfig cfg = paper_fig6_config(proto);
  cfg.cluster.seed = seed;
  return cfg;
}

}  // namespace

void run_sim_storm(const Options& opt, Result& out) {
  StormOutcome o;
  SpanLog spans(opt.trace);
  const std::uint64_t run_span = spans.next_id();

  // ---- set-up, repeated: build a fixture -> first simulated second ----
  HostScaled setup_ms(0.0);
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::int64_t t0 = now_ns();
    StormFixture fx(kRows[rep % kRows.size()].proto, opt.seed);
    fx.step(Duration::seconds(1));
    const std::int64_t t1 = now_ns();
    setup_ms.add(static_cast<double>(t1 - t0) / 1e6);
    spans.add("setup", spans.next_id(), run_span, t0, t1);
  }

  // ---- timed rounds, each rescaled to the reference host ----
  const double budget = opt.trace ? opt.seconds * 0.5 : opt.seconds;
  HostScaled round_ms(0.0);
  std::uint64_t total_committed = 0;
  const double start = now_s();
  while (round_ms.scaled().empty() || now_s() - start < budget) {
    const std::int64_t r0 = now_ns();
    const std::uint64_t round_span = spans.next_id();
    for (std::size_t i = 0; i < kRows.size(); ++i) {
      const std::int64_t s0 = now_ns();
      const ExperimentResult r = run_create_storm(storm_config(kRows[i].proto, opt.seed));
      const std::int64_t s1 = now_ns();
      ProtoTotals& t = o.p[i];
      if (t.storms == 0) t.first_sim_ops = r.ops_per_second;
      ++t.storms;
      t.committed += r.committed;
      t.aborted += r.aborted;
      t.lost += r.lost;
      t.wall_s += static_cast<double>(s1 - s0) / 1e9;
      t.forces += r.stats.get("wal.force.count");
      t.force_bytes += r.stats.get("wal.force.bytes");
      t.msgs += r.stats.get("net.sent");
      t.violations += r.invariant_violations;
      t.non_serializable += r.serializable ? 0 : 1;
      spans.add(kRows[i].key, spans.next_id(), round_span, s0, s1);
    }
    const std::int64_t r1 = now_ns();
    spans.add("round", round_span, run_span, r0, r1);
    round_ms.add(static_cast<double>(r1 - r0) / 1e6);
  }
  for (const ProtoTotals& t : o.p) total_committed += t.committed;

  // ---- determinism: the full trace hash repeats (untimed) ----
  for (std::size_t i = 0; i < kRows.size(); ++i) {
    ExperimentConfig cfg = storm_config(kRows[i].proto, opt.seed);
    cfg.trace = true;
    o.p[i].hash_a = run_create_storm(cfg).trace_hash;
    o.p[i].hash_b = run_create_storm(cfg).trace_hash;
  }

  std::uint64_t aborted = 0, lost = 0;
  for (const ProtoTotals& t : o.p) {
    aborted += t.aborted;
    lost += t.lost;
  }
  const std::vector<double>& rounds = round_ms.scaled();
  out.add_e2e("setup_s", median(setup_ms.scaled()) / 1e3, "s");
  out.add_e2e("peak_rss_mb", peak_rss_mb(), "MB");
  // The mean, not the median: the host alternates between two CPU speeds
  // about a second apart, and a median of identical rounds flips between
  // them from run to run.
  out.add_e2e("latency_ms",
              round_ms.scaled_total_ms() / static_cast<double>(rounds.size()), "ms");
  out.add_e2e("ok_frac",
              static_cast<double>(total_committed) /
                  static_cast<double>(total_committed + aborted + lost),
              "ratio");
  out.add_e2e("goodput_ops_s",
              static_cast<double>(total_committed) * 1e3 / round_ms.scaled_total_ms(),
              "1/s");
  out.attempted = total_committed + aborted + lost;
  out.failed = aborted + lost;

  out.notes.push_back(
      std::to_string(rounds.size()) +
      " rounds (latency samples); each round = 4 storms x 30 simulated s; "
      "p95 round " + std::to_string(quantile(rounds, 0.95)) + " ms; "
      "host slowdown over the rounds " +
      std::to_string(round_ms.raw_total_ms() / round_ms.scaled_total_ms()) +
      "; unscaled goodput " +
      std::to_string(static_cast<double>(total_committed) * 1e3 /
                     round_ms.raw_total_ms()) +
      "/s");
  for (std::size_t i = 0; i < kRows.size(); ++i) {
    const ProtoTotals& t = o.p[i];
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "storm_txn_per_s.%s = %.1f /s (wall); %.2f creates per "
                  "simulated s; %.3f forces, %.3f msgs per commit; trace "
                  "hash 0x%016llx",
                  kRows[i].key, static_cast<double>(t.committed) / t.wall_s,
                  t.first_sim_ops,
                  static_cast<double>(t.forces) / static_cast<double>(t.committed),
                  static_cast<double>(t.msgs) / static_cast<double>(t.committed),
                  static_cast<unsigned long long>(t.hash_a));
    out.notes.emplace_back(buf);
  }

  if (opt.trace) {
    // Kernel attribution on the persistent fixture, one protocol at a time.
    std::uint64_t events = 0, txns = 0, allocs = 0;
    std::int64_t wall_ns = 0;
    Histogram lock_wait;
    std::uint64_t fx_committed = 0;
    const double per_proto = opt.seconds * 0.5 / kRows.size();
    for (std::size_t i = 0; i < kRows.size(); ++i) {
      // Each fixture lives for the e2e storm's span (5 s warm-up + 25 s),
      // then is rebuilt outside the timed region: the hot directory's
      // entries grow with simulated time, and an ever-growing directory
      // would make the per-event cost depend on how long the run lasted.
      std::uint64_t ev = 0, tx = 0, a = 0;
      std::int64_t w = 0;
      while (w == 0 || static_cast<double>(w) / 1e9 < per_proto) {
        StormFixture fx(kRows[i].proto, opt.seed);
        fx.step(Duration::seconds(5));
        const std::uint64_t tx0 = fx.committed();
        const std::uint64_t a0 = thread_allocations();
        const std::int64_t w0 = now_ns();
        for (int k = 0; k < 25; ++k) {
          const std::int64_t s0 = now_ns();
          ev += fx.step(Duration::seconds(1));
          spans.add("sim.window", spans.next_id(), run_span, s0, now_ns());
        }
        w += now_ns() - w0;
        a += thread_allocations() - a0;
        tx += fx.committed() - tx0;
        lock_wait.merge(fx.cluster().node(NodeId(0)).locks().wait_times());
        fx_committed += fx.committed();
      }
      events += ev;
      txns += tx;
      allocs += a;
      wall_ns += w;
      out.add_layer(std::string("sim.allocs_per_event.") + kRows[i].key,
                    static_cast<double>(a) / static_cast<double>(ev), "count");
    }
    std::int64_t forces = 0, bytes = 0, msgs = 0;
    for (const ProtoTotals& t : o.p) {
      forces += t.forces;
      bytes += t.force_bytes;
      msgs += t.msgs;
    }
    const double c = static_cast<double>(total_committed);
    out.add_layer("sim.events_per_txn",
                  static_cast<double>(events) / static_cast<double>(txns), "count");
    out.add_layer("sim.ns_per_event",
                  static_cast<double>(wall_ns) / static_cast<double>(events), "ns");
    out.add_layer("sim.allocs_per_event",
                  static_cast<double>(allocs) / static_cast<double>(events), "count");
    out.add_layer("wal.forces_per_commit", static_cast<double>(forces) / c, "count");
    out.add_layer("wal.force_bytes_per_commit", static_cast<double>(bytes) / c,
                  "bytes");
    out.add_layer("net.msgs_per_commit", static_cast<double>(msgs) / c, "count");
    out.add_layer("lock.wait_us.p50", lock_wait.quantile(0.5) / 1e3, "us");
    out.add_layer("lock.wait_us.p99", lock_wait.quantile(0.99) / 1e3, "us");
    out.add_layer("lock.waits_per_commit",
                  fx_committed ? static_cast<double>(lock_wait.count()) /
                                     static_cast<double>(fx_committed)
                               : 0.0,
                  "count");
    for (std::size_t i = 0; i < kRows.size(); ++i) {
      const ProtoTotals& t = o.p[i];
      out.add_layer(std::string("storm_txn_per_s.") + kRows[i].key,
                    static_cast<double>(t.committed) / t.wall_s, "1/s");
    }
    out.notes.push_back("fixture: " + std::to_string(events) + " events, " +
                        std::to_string(txns) + " txns over " +
                        std::to_string(static_cast<double>(wall_ns) / 1e9) +
                        " s wall (lock waits in simulated time)");
    write_spans(opt, spans, out);
  }

  check_storm(o, out);
  if (opt.check_the_checks) broken_copies(o).verify(check_storm, out);
}

}  // namespace perfbench
