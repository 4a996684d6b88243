"""One pass of a workload in a fresh interpreter.

Reads {"rows": [[row id, argv], ...], "trace": bool, "spans_file": path or
null} as JSON on stdin, calls rll.cli.main(argv) in process for each row in
order with stdout and stderr captured, and writes one JSON object with the
per-row results, the pass wall time, the machine speed sampled during the
pass (see speed.py) and the peak RSS to stdout.  Run from the root of a
checkout: `python3 bench/worker.py < plan.json`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

from speed import SpeedSampler

SAMPLE_INTERVAL_S = 0.05


def run_rows(cli, plan_rows, tracer):
    """Call the CLI once per row; returns the per-row results and the wall
    time of the whole loop."""
    clock = time.perf_counter
    rows = []
    pass_start = clock()
    for row_id, argv in plan_rows:
        if tracer is not None:
            tracer.row = row_id
        out, err = io.StringIO(), io.StringIO()
        code = error = None
        start = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception:
            error = traceback.format_exc()
        elapsed = clock() - start
        rows.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                     "error": error, "seconds": elapsed})
    return rows, clock() - pass_start


def main() -> int:
    plan = json.load(sys.stdin)
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import rll.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print("rll was imported from %s, not from ./src" % cli.__file__, file=sys.stderr)
        return 2

    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    with SpeedSampler(SAMPLE_INTERVAL_S) as sampler:
        rows, wall = run_rows(cli, plan["rows"], tracer)

    result = {
        "rows": rows,
        "wall_s": wall,
        "speed": sampler.speed(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        layers, rooted = tracer.summary()
        result["trace"] = {
            "layers": layers,
            "rooted_s": rooted,
            "sizes": tracer.sizes,
            "missing": tracer.missing,
        }
        if plan.get("spans_file"):
            with open(plan["spans_file"], "w", encoding="utf-8") as f:
                for record in tracer.span_records():
                    f.write(json.dumps(record) + "\n")
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
