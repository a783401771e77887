#!/usr/bin/env python3
"""Smoke self-test of the repo benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Runs every workload at a tiny size,
untraced and traced, through perfbench/run.py and asserts that
  * BENCHMARK.json is within the limits the benchmark contract sets;
  * every end-to-end and per-layer metric it names appears, with its unit;
  * every correctness check rejects a deliberately broken copy of the run's
    outcome (run.py --check-the-checks);
  * run.py fails, without printing a result, in a directory that holds
    only BENCHMARK.json and perfbench/.
Exits 0 when all hold.
"""
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Served runs need a light phase long enough that one start-up hiccup is
# not a whole percentile of the generator's send times.
TINY_SECONDS = {"serve-1pc": 2, "serve-hotdir": 2, "sim-storm": 0.5,
                "chaos-1pc": 0.5}

failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL: " + what)


def check_spec(spec):
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    expect(2 <= len(spec["workloads"]) <= 8, "2..8 workloads")
    expect(1 <= spec["run_seconds"] <= 60, "run_seconds in 1..60")
    names = []
    for w in spec["workloads"]:
        expect(set(w) == {"name", "why"} and len(w["why"]) <= 200
               and "\n" not in w["why"], "workload %s: name + one-line why" % w["name"])
        names.append(w["name"])
    for m in spec["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"}
               and 0 < m["bound"] <= 0.25, "end-to-end metric %s keys/bound" % m["name"])
        names.append(m["name"])
    expect(any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in spec["end_to_end"]), "setup_s present")
    for m in spec["per_layer"]:
        expect(set(m) == {"name", "unit", "better"}, "per-layer metric %s keys" % m["name"])
        names.append(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        expect(bool(UNIT.match(m["unit"])) and m["better"] in ("lower", "higher"),
               "metric %s unit/better" % m["name"])
    expect(all(NAME.match(n) for n in names), "names well formed")
    expect(len(names) == len(set(names)), "names unique")


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1",
           "--seconds", str(TINY_SECONDS.get(workload, 0.5)),
           "--trace", str(trace)]
    if cwd == ROOT:
        cmd.append("--check-the-checks")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)

    for w in spec["workloads"]:
        for trace in (0, 1):
            p = run(w["name"], trace)
            tag = "%s --trace %d" % (w["name"], trace)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                expect(False, "%s exited %d:\n%s%s" % (tag, p.returncode,
                                                     p.stdout[-3000:], p.stderr[-2000:]))
                continue
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   tag + ": result keys")
            expect(result["correct"] is True and result["attempted"] >= 1,
                   tag + ": correct run")
            want = spec["per_layer"] if trace else spec["end_to_end"]
            expect(set(result["metrics"]) == {m["name"] for m in want},
                   tag + ": metric names")
            for m in want:
                got = result["metrics"].get(m["name"], {})
                expect(got.get("unit") == m["unit"]
                       and isinstance(got.get("value"), (int, float)),
                       "%s: %s has unit %s" % (tag, m["name"], m["unit"]))
            expect(re.search(r"check-the-checks: [1-9]\d* broken outcomes tried",
                             p.stdout) is not None,
                   tag + ": correctness checks were fed broken outcomes")
            if trace:
                expect("spans: " in p.stdout, tag + ": span file written")
            print("ok: " + tag)

    # Only BENCHMARK.json and perfbench/ present: must fail, print no result.
    bare = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = run(spec["workloads"][0]["name"], 0, cwd=bare)
    expect(p.returncode != 0 and '"correct"' not in p.stdout,
           "bare directory: run.py must fail without a result")
    shutil.rmtree(bare, ignore_errors=True)
    print("ok: bare directory fails")

    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures else "passed"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
