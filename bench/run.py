"""The rll benchmark: three closed-loop workloads, one client, one process.

    python3 bench/run.py --workload {suite,decide,member} [--seed N]
                         [--seconds S] [--trace 0|1] [--smoke]

Run from the root of a checkout.  Each pass of a workload runs in a fresh
interpreter (bench/worker.py) that calls rll.cli.main(argv) once per row;
passes repeat until --seconds have gone by, and at least twice, so that two
passes can be compared byte for byte.  Every answer is checked against a
reference that shares no code with rll (see workloads.py).

With --trace 0 the last line reports the end-to-end metrics; with --trace 1
one untraced and two traced passes (repeated while time remains) give the
per-layer metrics.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  --smoke keeps one cheap row of each
kind, for the benchmark's own smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from tracer import COUNTS, SIZES, SPANS

DEFAULT_SEED = 7
HELD_OUT_SEED = 20260815  # later performance claims must also hold on this seed
SETUP_BATCH = 4  # import timings taken before each pass and after the last
OUT_DIR = "bench/out"
RUN_BUDGET_S = 170  # a run must end within 180 s
# prints the import time of rll.cli at the reference machine's speed
IMPORT_PROBE = """
import sys, time
sys.path[:0] = ["src", "bench"]
from speed import SpeedSampler
with SpeedSampler(0.005) as sampler:
    start = time.perf_counter()
    import rll.cli
    seconds = time.perf_counter() - start
print(seconds * sampler.speed())
"""


class BenchError(RuntimeError):
    pass


def measure_setup(deadline, count=SETUP_BATCH):
    """Times for fresh interpreters to import rll.cli."""
    samples = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise BenchError("importing rll.cli failed:\n" + proc.stderr)
        samples.append(float(proc.stdout))
    return samples


def run_pass(rows, trace, deadline, spans_file=None):
    """One pass in a fresh worker; each row's result gains `miss` (None or
    why the answer is wrong) and `sha256` of its stdout."""
    work = workloads.WORK_DIR
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    plan = {"rows": [[r.id, r.argv] for r in rows], "trace": trace, "spans_file": spans_file}
    proc = subprocess.run([sys.executable, "bench/worker.py"], input=json.dumps(plan), capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError("worker failed:\n" + proc.stderr)
    result = json.loads(proc.stdout)
    for row, out in zip(rows, result["rows"]):
        try:
            out["miss"] = workloads.check_row(row, out)
        except Exception as exc:  # an answer too malformed to check is a miss
            out["miss"] = "answer could not be checked: %r" % exc
        if out["miss"] and out["stderr"].strip():
            out["miss"] += " (stderr: %s)" % out["stderr"].strip().splitlines()[-1]
        out["sha256"] = hashlib.sha256(out["stdout"].encode("utf-8")).hexdigest()
    return result


def run_passes(rows, trace, seconds, deadline, workload):
    """Untraced passes, or untraced/traced/traced cycles with --trace 1,
    until `seconds` have gone by and the minimum is met.  Untraced runs also
    time the import of rll.cli around every pass, so that set-up time is
    sampled across the whole run; returns (passes, set-up samples)."""
    kinds = itertools.cycle((False, True, True) if trace else (False,))
    minimum = 3 if trace else 2
    spans_file = os.path.join(OUT_DIR, "spans-%s.jsonl" % workload)
    passes = []
    setup = []
    if not trace:
        measure_setup(deadline, 1)  # warm-up: fills the bytecode cache
    start = time.monotonic()
    while True:
        if not trace:
            setup += measure_setup(deadline)
        traced = next(kinds)
        passes.append((traced, run_pass(rows, traced, deadline, spans_file if traced else None)))
        now = time.monotonic()
        longest = max(p["wall_s"] for _, p in passes)
        if len(passes) >= minimum and (now - start >= seconds or now + 1.5 * longest > deadline):
            if not trace:
                setup += measure_setup(deadline)
            return passes, setup


def misses(rows, passes):
    """(attempted, [(pass, row id, why)]): a row misses when its answer is
    wrong, or when its stdout or its sizes differ from the first pass that
    produced them."""
    found = []
    first_hash = {}
    first_sizes = {}
    for k, (traced, p) in enumerate(passes):
        sizes = p["trace"]["sizes"] if traced else {}
        for row, out in zip(rows, p["rows"]):
            why = out["miss"]
            if why is None and first_hash.setdefault(row.id, out["sha256"]) != out["sha256"]:
                why = "stdout differs from an earlier pass"
            if why is None and traced:
                mine = sizes.get(row.id, {})
                if first_sizes.setdefault(row.id, mine) != mine:
                    why = "sizes %s differ from the first traced pass's %s" % (mine, first_sizes[row.id])
            if why is not None:
                found.append((k + 1, row.id, why))
    return len(rows) * len(passes), found


def command_totals(rows, p):
    """Seconds spent in each CLI command during one pass, at the reference
    machine's speed."""
    totals = {}
    for row, out in zip(rows, p["rows"]):
        name = row.kind + "_s"
        totals[name] = totals.get(name, 0.0) + out["seconds"] * p["speed"]
    return totals


def end_to_end(rows, passes, setup):
    plain = [p for traced, p in passes if not traced]
    per_command = [command_totals(rows, p) for p in plain]
    lines = ["setup_s is the median of %d imports" % len(setup)]
    for name in per_command[0]:
        values = [t[name] for t in per_command]
        lines.append("%s %.4f s (median of %d passes)" % (name, statistics.median(values), len(values)))
    for k, p in enumerate(plain):
        lines.append("pass %d: raw wall %.4f s at %.3f x the reference speed" % (k + 1, p["wall_s"], p["speed"]))
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": statistics.median(p["wall_s"] * p["speed"] for p in plain), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in plain), "unit": "MB"},
    }
    return metrics, lines


def per_layer(passes):
    """Layer metrics from the traced passes, times at the reference speed."""
    plain = [p for traced, p in passes if not traced]
    traced = [p for t, p in passes if t]
    first = traced[0]["trace"]

    def scaled(value_of):
        return statistics.median(value_of(p) * p["speed"] for p in traced)

    metrics = {}
    for name in SPANS:
        metrics[name + ".calls"] = {"value": first["layers"][name + ".calls"], "unit": "count"}
        metrics[name + ".self_s"] = {"value": scaled(lambda p: p["trace"]["layers"][name + ".self_s"]), "unit": "s"}
    for name in COUNTS:
        metrics[name + ".calls"] = {"value": first["layers"][name + ".calls"], "unit": "count"}
    for name in SIZES:
        metrics[name] = {"value": first["layers"][name], "unit": "count"}
    wall = scaled(lambda p: p["wall_s"])
    self_sum = scaled(lambda p: sum(p["trace"]["layers"][n + ".self_s"] for n in SPANS))
    remainder = scaled(lambda p: p["wall_s"] - p["trace"]["rooted_s"])
    untraced = statistics.median(p["wall_s"] * p["speed"] for p in plain)
    metrics["trace.wall_s"] = {"value": wall, "unit": "s"}
    metrics["trace.self_sum_s"] = {"value": self_sum, "unit": "s"}
    metrics["trace.remainder_s"] = {"value": remainder, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": wall - untraced, "unit": "s"}
    lines = []
    for p in traced:
        self_total = sum(p["trace"]["layers"][n + ".self_s"] for n in SPANS)
        rest = p["wall_s"] - p["trace"]["rooted_s"]
        lines.append("traced pass: wall %.4f s = span self times %.4f s + untraced remainder %.4f s (off by %.1e s)"
                     % (p["wall_s"], self_total, rest, p["wall_s"] - self_total - rest))
    lines.append("median traced wall %.4f s, untraced %.4f s, tracing overhead %.4f s (reference speed)"
                 % (wall, untraced, wall - untraced))
    if first["missing"]:
        lines.append("not defined by rll, reported as 0: " + ", ".join(first["missing"]))
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one cheap row of each kind")
    args = parser.parse_args(argv)

    if not os.path.isfile("src/rll/cli.py"):
        print("error: run from the root of an rll checkout (src/rll/cli.py not found)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    os.makedirs(OUT_DIR, exist_ok=True)
    rows = workloads.build_rows(args.workload, args.seed, args.smoke)
    print("workload %s, seed %d (default %d, held-out %d), %d rows"
          % (args.workload, args.seed, DEFAULT_SEED, HELD_OUT_SEED, len(rows)))
    try:
        passes, setup = run_passes(rows, bool(args.trace), args.seconds, deadline, args.workload)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    attempted, found = misses(rows, passes)
    for k, row_id, why in found:
        print("MISS pass %d %s: %s" % (k, row_id, why))
    if args.trace:
        metrics, lines = per_layer(passes)
    else:
        metrics, lines = end_to_end(rows, passes, setup)
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print("%s %s %s" % (name, m["value"], m["unit"]))
    print("fail_ratio %d/%d over %d passes" % (len(found), attempted, len(passes)))
    print(json.dumps({"correct": not found, "attempted": attempted, "failed": len(found), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
