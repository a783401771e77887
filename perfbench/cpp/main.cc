// perfbench: runs one benchmark workload and prints what it measured.
//
//   perfbench --workload serve-1pc --seed 7 --seconds 10 --trace 0
//
// Human-readable lines come first; the last line is `RESULT <json>` with
// the measured end-to-end metrics, the per-layer metrics (traced runs),
// the attempted/failed counts and every failed correctness check.
// perfbench/run.py builds this binary and turns that line into the
// benchmark's result.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string metrics_json(const std::vector<Metric>& ms, Result& r) {
  std::string s = "{";
  for (const Metric& m : ms) {
    double v = m.value;
    if (!std::isfinite(v)) {
      r.failures.push_back("metric " + m.name + " is not finite");
      v = 0.0;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (s.size() > 1) s += ", ";
    s += "\"" + json_escape(m.name) + "\": {\"value\": " + buf +
         ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  return s + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve-1pc|serve-hotdir|sim-storm|"
               "chaos-1pc --seed N --seconds S --trace 0|1 "
               "[--scratch-dir DIR] [--check-the-checks]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_val = i + 1 < argc;
    if (a == "--workload" && has_val) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_val) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_val) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_val) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--scratch-dir" && has_val) {
      opt.scratch_dir = argv[++i];
    } else if (a == "--check-the-checks") {
      opt.check_the_checks = true;
    } else {
      return usage();
    }
  }
  if (!(opt.seconds > 0.0)) return usage();

  Result r;
  if (opt.workload == "serve-1pc" || opt.workload == "serve-hotdir") {
    run_served(opt, r);
  } else if (opt.workload == "sim-storm") {
    run_sim_storm(opt, r);
  } else if (opt.workload == "chaos-1pc") {
    run_chaos(opt, r);
  } else {
    return usage();
  }

#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::printf("build: %s, NDEBUG %s, compiler %s\n", PERFBENCH_BUILD_TYPE,
              ndebug ? "on" : "off (assertions compiled in)", __VERSION__);
  for (const std::string& n : r.notes) std::printf("%s\n", n.c_str());
  for (const std::string& f : r.failures) std::printf("CHECK FAILED: %s\n", f.c_str());

  const std::string e2e = metrics_json(r.e2e, r);
  const std::string layer = metrics_json(r.layer, r);
  std::string failures = "[";
  for (const std::string& f : r.failures) {
    if (failures.size() > 1) failures += ", ";
    failures += "\"" + json_escape(f) + "\"";
  }
  failures += "]";
  std::printf(
      "RESULT {\"build_type\": \"%s\", \"attempted\": %llu, \"failed\": %llu, "
      "\"failures\": %s, \"e2e\": %s, \"layer\": %s}\n",
      json_escape(PERFBENCH_BUILD_TYPE).c_str(),
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), failures.c_str(), e2e.c_str(),
      layer.c_str());
  std::fflush(stdout);
  return 0;
}
