#!/usr/bin/env python3
"""Runs one workload of the repo benchmark and prints its result.

    python3 perfbench/run.py --workload serve-1pc --seed 7 --seconds 10 --trace 0

Run from the root of a checkout.  Builds perfbench/ (which compiles ../src)
in Release mode into $CARGO_TARGET_DIR (default .bench_build), runs the
workload, checks its outputs, and prints as the last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json; with --trace 1 they are its
per-layer metrics, and a Chrome trace of the benchmark's spans is written
next to the build.  Exit status: 0 correct, 1 a correctness check failed,
2 the benchmark could not run (no result printed).
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-1pc", "serve-hotdir", "sim-storm", "chaos-1pc")
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def work_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base)


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no src/ next to perfbench/: run from a full checkout")
    if shutil.which("cmake") is None:
        die("cmake not found")
    bdir = os.path.join(work_dir(), "perfbench-build")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                shutil.rmtree(bdir, ignore_errors=True)
                die("cmake configure failed (see output above)" + tail(log_path))
        jobs = str(min(4, os.cpu_count() or 1))
        rc = subprocess.call(["cmake", "--build", bdir, "-j", jobs],
                             stdout=log, stderr=subprocess.STDOUT)
    if rc != 0:
        die("build failed:" + tail(log_path))
    return os.path.join(bdir, "perfbench")


def tail(path, n=30):
    try:
        with open(path) as f:
            return "\n" + "".join(f.readlines()[-n:])
    except OSError:
        return ""


def source_digest():
    """SHA-256 over the sources the binary is built from (src/, perfbench/)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                p = os.path.join(d, name)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def stamp(build_line, build_type):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "compiler": build_line,
        "build_type": build_type if build_type == "Release"
                      else build_type + " (NOT a Release build: numbers are not comparable)",
        "commit": commit or "none (not a git checkout)",
        "source_sha256": source_digest(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check-the-checks", action="store_true",
                    help="also verify that every correctness check rejects "
                         "a deliberately broken copy of the run's outcome")
    args = ap.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        die("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)

    binary = build()
    run_dir = os.path.join(work_dir(), "perfbench-run")
    os.makedirs(run_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch-dir", os.path.relpath(run_dir, ROOT)]
    if args.check_the_checks:
        cmd.append("--check-the-checks")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("workload did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    result_lines = [l for l in lines if l.startswith("RESULT ")]
    if proc.returncode != 0 or not result_lines:
        sys.stdout.write(proc.stdout)
        die("workload exited with status %d" % proc.returncode)
    raw = json.loads(result_lines[-1][len("RESULT "):])
    build_line = next((l for l in lines if l.startswith("build: ")), "build: ?")

    host = stamp(build_line[len("build: "):], raw["build_type"])
    print("host: " + json.dumps(host, sort_keys=True))
    for l in lines:
        if not l.startswith("RESULT ") and not l.startswith("build: "):
            print(l)

    failures = list(raw["failures"])
    want = spec["per_layer"] if args.trace else spec["end_to_end"]
    got = raw["layer"] if args.trace else raw["e2e"]
    metrics = {}
    for m in want:
        name, unit = m["name"], m["unit"]
        if name in got:
            if got[name]["unit"] != unit:
                failures.append("metric %s measured in %s, BENCHMARK.json says %s"
                                % (name, got[name]["unit"], unit))
            metrics[name] = {"value": got[name]["value"], "unit": unit}
        elif args.trace:
            # A layer this workload does not run (perfbench/README.md has
            # the layer -> metric -> workload table).
            print("n/a: %s is not measured on %s (its layer is not on this "
                  "workload's path); reported as 0" % (name, args.workload))
            metrics[name] = {"value": 0.0, "unit": unit}
        else:
            failures.append("end-to-end metric %s missing" % name)
    extra = sorted(set(got) - {m["name"] for m in want})
    if extra:
        failures.append("metrics not declared in BENCHMARK.json: " + ", ".join(extra))
    if args.trace:
        print("traced end-to-end (compare with an untraced run of the same "
              "seed for the tracing overhead): " +
              ", ".join("%s=%.6g %s" % (k, v["value"], v["unit"])
                        for k, v in raw["e2e"].items()))
    for fmsg in failures[len(raw["failures"]):]:
        print("CHECK FAILED: " + fmsg)

    out = {"correct": not failures, "attempted": int(raw["attempted"]),
           "failed": int(raw["failed"]), "metrics": metrics}
    record = os.path.join(run_dir, "%s-seed%d-trace%d.json"
                          % (args.workload, args.seed, args.trace))
    with open(record, "w") as f:
        json.dump({"host": host, "stamp_time": time.time(), "result": out,
                   "failures": failures, "traced_e2e": raw["e2e"] if args.trace
                   else None}, f, indent=1, sort_keys=True)
    print(json.dumps(out))
    sys.exit(0 if not failures else 1)


if __name__ == "__main__":
    main()
