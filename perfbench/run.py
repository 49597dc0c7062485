#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the uFork simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/main.exe with dune, then
runs repetitions of one workload, each in a fresh process, until S
seconds have passed. Every repetition verifies its own outputs (dump
contents, accounting audit, state sanitizer, fork cross-checks); this
script also checks that simulated results are identical across
repetitions and, with --trace 1, between traced and untraced ones.

Between repetitions a fixed reference kernel (calibrate.ml) is timed in
its own process, and each repetition's host times are scaled by the
kernel's nominal time over the faster of the two timings around it: a
shared host's slow phases slow both alike, so the scaled times are
steady.

--trace 0 reports the end-to-end metrics (medians over repetitions).
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (medians) plus trace.overhead_pct,
the traced median host time over the untraced one, minus one.

A readable table goes first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. METRICS.md
documents every metric.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORKLOADS = ["redis-bgsave", "fork-storm", "spawn-context1", "hello-trio"]
REP_TIMEOUT_S = 150

# End-to-end metrics: host ones come from the repetition's own timers,
# simulated ones from its simulated clock.
HOST_E2E = [("host_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
SIM_E2E = ["fork_us", "fork_p99_us", "sim_ms", "child_mb"]


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    die("dune not found on PATH")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("the simulator sources (dune-project, lib/) are not next to "
            "perfbench/; run from a checkout of the repository")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        dune_command() + ["build", "--root", ".", "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.isfile(EXE):
        die("build failed")


def run_exe(args, what):
    try:
        r = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s timed out" % what, 1)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        die("%s exited with %d" % (what, r.returncode), 1)
    return json.loads(lines[-1])


# Host-time units and how a slow-down factor applies to each.
SCALE_POWER = {"s": 1, "ms": 1, "us": 1, "1/s": -1}


def calibration():
    return run_exe(["--calibrate"], "calibration")


def repetition(workload, seed, traced):
    cmd = ["--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    rep = run_exe(cmd, workload + " repetition")
    rep["traced"] = traced
    return rep


def scale(rep, cal):
    """Scale a repetition's host times to the calibration's nominal speed."""
    rep["calibration_s"] = cal["calibration_s"]
    if finite(rep["host_s"]) and finite(rep["setup_s"]):
        f = cal["nominal_s"] / cal["calibration_s"]
        rep["raw_host_s"] = rep["host_s"]
        rep["host_s"] *= f
        rep["setup_s"] *= f
        for m in rep["layers"].values():
            m["value"] *= f ** SCALE_POWER.get(m["unit"], 0)


def values(rep, group):
    return {k: v["value"] for k, v in rep[group].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def check(reps, errors):
    """Cross-repetition checks: simulated results are deterministic."""
    for rep in reps:
        for e in rep["errors"]:
            errors.append("%s: %s" % ("traced" if rep["traced"] else "untraced", e))
        for k in ("host_s", "setup_s", "peak_rss_mb"):
            if not finite(rep.get(k)):
                errors.append("missing host metric " + k)
        for k in SIM_E2E:
            if not finite(rep["e2e"].get(k, {}).get("value")):
                errors.append("missing simulated metric " + k)
    first = reps[0]
    for rep in reps[1:]:
        for group in ("e2e", "extra"):
            if values(rep, group) != values(first, group):
                errors.append("simulated %s results differ between repetitions "
                              "(traced=%s)" % (group, rep["traced"]))


def table(rows):
    w = max(len(r[0]) for r in rows)
    for name, text in rows:
        print("  %-*s  %s" % (w, name, text))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    build()
    # Calibration and repetitions share one CPU, so that both see the
    # same co-tenant load.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    reps = []
    t0 = time.monotonic()
    before = calibration()
    while True:
        # With tracing, alternate untraced and traced repetitions so both
        # see the same machine conditions.
        traced = a.trace == 1 and len(reps) % 2 == 1
        rep = repetition(a.workload, a.seed, traced)
        after = calibration()
        scale(rep, min(before, after, key=lambda c: c["calibration_s"]))
        before = after
        reps.append(rep)
        elapsed = time.monotonic() - t0
        enough = len(reps) >= (4 if a.trace else 3)
        balanced = a.trace == 0 or len(reps) % 2 == 0
        if enough and balanced and elapsed >= a.seconds:
            break
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]

    errors = []
    check(reps, errors)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    correct = not errors and attempted > 0

    print("perfbench %s seed=%d: %d repetitions in %.1f s (%d traced)"
          % (a.workload, a.seed, len(reps), time.monotonic() - t0, len(traced)))
    metrics = {}
    if correct:
        rows = []
        for name, unit in HOST_E2E:
            xs = [r[name] for r in untraced]
            q1, q3 = quartiles(xs)
            med = statistics.median(xs)
            rows.append((name, "%.6g %s  (median of %d; q1 %.6g, q3 %.6g)"
                         % (med, unit, len(xs), q1, q3)))
            metrics[name] = {"value": med, "unit": unit}
        rows.append(("(unscaled host_s)", "%.6g s; calibration median %.6g s"
                     % (statistics.median(r["raw_host_s"] for r in untraced),
                        statistics.median(r["calibration_s"] for r in untraced))))
        first = untraced[0]
        for name in SIM_E2E:
            m = first["e2e"][name]
            rows.append((name, "%.6g %s" % (m["value"], m["unit"])))
            metrics[name] = {"value": m["value"], "unit": m["unit"]}
        for name, m in first["extra"].items():
            rows.append((name, "%.6g %s" % (m["value"], m["unit"])))
        rows.append(("failed_frac", "%.6g (%d of %d operations)"
                     % (failed / attempted, failed, attempted)))
        print("end-to-end (tracing off):")
        table(rows)
        if a.trace:
            layers = {}
            for name, m in traced[0]["layers"].items():
                xs = [r["layers"][name]["value"] for r in traced]
                layers[name] = {"value": statistics.median(xs), "unit": m["unit"]}
            overhead = (statistics.median(r["host_s"] for r in traced)
                        / statistics.median(r["host_s"] for r in untraced) - 1)
            layers["trace.overhead_pct"] = {"value": 100 * overhead, "unit": "%"}
            layers["host.calibration_s"] = {
                "value": statistics.median(r["calibration_s"] for r in reps),
                "unit": "s"}
            print("per-layer (traced, median of %d):" % len(traced))
            table([(k, "%.6g %s" % (v["value"], v["unit"]))
                   for k, v in layers.items()])
            metrics = layers
    else:
        print("checks failed:")
        for e in errors[:20]:
            print("  " + e)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
