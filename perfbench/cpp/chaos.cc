// chaos-1pc: seeded random fault schedules explored on the default 1PC
// ChaosRunConfig, one schedule per explore() call with threads = 1, every
// checker on.  The only workload that runs crash recovery, fencing,
// suspicion and the checker battery.
#include <cstdio>
#include <string>

#include "bench.h"
#include "chaos/explorer.h"
#include "sim/rng.h"

namespace perfbench {
namespace {

using namespace opc;

constexpr int kSetupRepeats = 9;
/// Schedules re-explored after the timed loop; their combined hash must
/// equal the first pass's.
constexpr std::size_t kReplayPrefix = 20;

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

ExplorerConfig one_schedule(std::uint64_t master_seed) {
  ExplorerConfig cfg;
  cfg.base = ChaosRunConfig{};  // 1PC, 3 nodes, every checker on
  cfg.n_schedules = 1;
  cfg.seed = master_seed;
  cfg.threads = 1;
  return cfg;
}

/// The master seed of the run's i-th schedule.
std::uint64_t schedule_seed(std::uint64_t seed, std::uint64_t i) {
  return Rng(seed, i + 1).next_u64();
}

struct ChaosOutcome {
  std::uint64_t schedules = 0, passed = 0, failed = 0;
  std::uint64_t hash_first = 0, hash_replay = 0;  // over the replay prefix
  std::uint64_t rerun_mismatches = 0;  // traced: run_schedule vs explore()
  std::string first_failure;
};

void check_chaos(const ChaosOutcome& o, Result& out) {
  out.check(o.schedules > 0, "no schedule explored");
  out.check(o.failed == 0 && o.passed == o.schedules,
            std::to_string(o.failed) + " schedule(s) failed a checker" +
                (o.first_failure.empty() ? "" : ": " + o.first_failure));
  out.check(o.hash_first == o.hash_replay,
            "combined hash differs when the schedules are explored again");
  out.check(o.rerun_mismatches == 0,
            "run_schedule trace hash differs from explore()'s");
}

BrokenCopies<ChaosOutcome> broken_copies(const ChaosOutcome& good) {
  BrokenCopies<ChaosOutcome> v(good);
  v.add("none explored", [](ChaosOutcome& b) { b.schedules = 0; });
  v.add("failed schedule", [](ChaosOutcome& b) {
    b.failed = 1;
    b.passed -= 1;
  });
  v.add("hash", [](ChaosOutcome& b) { b.hash_replay ^= 1; });
  v.add("rerun", [](ChaosOutcome& b) { b.rerun_mismatches = 1; });
  return v;
}

}  // namespace

void run_chaos(const Options& opt, Result& out) {
  ChaosOutcome o;
  SpanLog spans(opt.trace);
  const std::uint64_t run_span = spans.next_id();

  // ---- set-up, repeated: configure -> first schedule explored ----
  // Always the same schedule, so that set-up time does not vary with the
  // workload seed.
  HostScaled setup_ms(0.0);
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::int64_t t0 = now_ns();
    const ExplorationReport r = explore(one_schedule(schedule_seed(1, 0)));
    const std::int64_t t1 = now_ns();
    setup_ms.add(static_cast<double>(t1 - t0) / 1e6);
    spans.add("setup", spans.next_id(), run_span, t0, t1);
    if (r.outcomes.empty()) break;
  }

  // ---- timed exploration, rescaled to the reference host every ~20 ms ----
  HostScaled schedule_ms(20.0);
  std::vector<double> run_ms;  // traced: run_schedule alone
  std::uint64_t committed = 0, aborted = 0, lost = 0;
  std::uint64_t prefix_hash = 0xcbf29ce484222325ULL;
  const double start = now_s();
  for (std::uint64_t i = 0; i == 0 || now_s() - start < opt.seconds; ++i) {
    const std::int64_t t0 = now_ns();
    const ExplorationReport r = explore(one_schedule(schedule_seed(opt.seed, i)));
    const std::int64_t t1 = now_ns();
    schedule_ms.add(static_cast<double>(t1 - t0) / 1e6);
    const std::uint64_t span = spans.next_id();
    spans.add("chaos.explore", span, run_span, t0, t1);
    ++o.schedules;
    o.passed += r.passed;
    o.failed += r.failed;
    if (i < kReplayPrefix) prefix_hash = fnv(prefix_hash, r.combined_hash);
    for (const ScheduleOutcome& so : r.outcomes) {
      committed += so.result.committed;
      aborted += so.result.aborted;
      lost += so.result.lost;
      if (!so.result.passed && o.first_failure.empty()) {
        o.first_failure = "schedule seed " + std::to_string(so.seed) + ": " +
                          (so.result.failures.empty()
                               ? std::string("?")
                               : so.result.failures.front().oracle + ": " +
                                     so.result.failures.front().detail);
      }
      if (opt.trace) {
        ChaosRunConfig rc = one_schedule(0).base;
        rc.seed = so.seed;
        const std::int64_t s0 = now_ns();
        const ChaosRunResult again = run_schedule(rc, so.schedule);
        const std::int64_t s1 = now_ns();
        run_ms.push_back(static_cast<double>(s1 - s0) / 1e6);
        spans.add("chaos.run_schedule", spans.next_id(), span, s0, s1);
        if (again.trace_hash != so.result.trace_hash) ++o.rerun_mismatches;
      }
    }
  }
  schedule_ms.flush();
  o.hash_first = prefix_hash;

  // ---- determinism: explore the prefix again (untimed) ----
  std::uint64_t replay = 0xcbf29ce484222325ULL;
  const std::uint64_t n_replay = std::min<std::uint64_t>(kReplayPrefix, o.schedules);
  for (std::uint64_t i = 0; i < n_replay; ++i) {
    replay = fnv(replay, explore(one_schedule(schedule_seed(opt.seed, i))).combined_hash);
  }
  o.hash_replay = replay;

  const std::uint64_t txns = committed + aborted + lost;
  const double per_s =
      static_cast<double>(o.schedules) * 1e3 / schedule_ms.scaled_total_ms();
  out.add_e2e("setup_s", median(setup_ms.scaled()) / 1e3, "s");
  out.add_e2e("peak_rss_mb", peak_rss_mb(), "MB");
  // The mean, not the median: the host alternates between two CPU speeds
  // about a second apart, and a median of near-equal work flips between
  // them from run to run.
  out.add_e2e("latency_ms",
              schedule_ms.scaled_total_ms() / static_cast<double>(o.schedules), "ms");
  out.add_e2e("ok_frac",
              txns ? static_cast<double>(committed) / static_cast<double>(txns) : 0.0,
              "ratio");
  out.add_e2e("goodput_ops_s", per_s, "1/s");
  out.attempted = o.schedules;
  out.failed = o.failed;
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "schedules_per_s = %.2f (unscaled %.2f); %llu schedules "
                "(latency samples), p95 %.3f ms, %llu passed; txns committed "
                "%llu aborted %llu lost %llu; prefix hash 0x%016llx",
                per_s, static_cast<double>(o.schedules) * 1e3 / schedule_ms.raw_total_ms(),
                quantile(schedule_ms.scaled(), 0.95),
                static_cast<unsigned long long>(o.schedules),
                static_cast<unsigned long long>(o.passed),
                static_cast<unsigned long long>(committed),
                static_cast<unsigned long long>(aborted),
                static_cast<unsigned long long>(lost),
                static_cast<unsigned long long>(o.hash_first));
  out.notes.emplace_back(buf);

  if (opt.trace) {
    out.add_layer("chaos.run_ms.p50", quantile(run_ms, 0.50), "ms");
    out.add_layer("chaos.run_ms.p99", quantile(run_ms, 0.99), "ms");
    out.add_layer("chaos.txns_per_schedule",
                  static_cast<double>(txns) / static_cast<double>(o.schedules),
                  "count");
    out.add_layer("acp.abort_frac",
                  committed + aborted ? static_cast<double>(aborted) /
                                            static_cast<double>(committed + aborted)
                                      : 0.0,
                  "ratio");
    write_spans(opt, spans, out);
  }

  check_chaos(o, out);
  if (opt.check_the_checks) broken_copies(o).verify(check_chaos, out);
}

}  // namespace perfbench
