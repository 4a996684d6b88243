"""Dump what rll prints on every benchmark row, for a byte-for-byte gate.

    PYTHONPATH=src python3 tests/golden/rows.py SEED > dump.jsonl

Builds the rows of the benchmark's suite, decide and member workloads for
SEED with bench/workloads.py's build_rows, runs each row's command line in
process through rll.cli.main and prints one JSON line per row: its id, exit
code, stdout, stderr and, for a row with `--emit-proof`, the text of the
proof file it wrote (null when it wrote none).  The rows run in a temporary
working directory, so the relative proof paths in their argv land there and
each `check` row reads the proof its `decide` row wrote.  Two checkouts whose
dumps for a seed are identical print the same bytes on every benchmark row.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads  # noqa: E402
from rll.cli import main as rll_main  # noqa: E402


def _run(row):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rll_main(row.argv)
    proof = None
    if "--emit-proof" in row.argv:
        path = row.argv[row.argv.index("--emit-proof") + 1]
        if os.path.exists(path):
            with open(path, "rb") as f:
                proof = f.read().decode("utf-8")
    return {"id": row.id, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "proof": proof}


def dump_lines(seed: int, smoke: bool = False):
    """One JSON line per row of every workload, in workload and row order;
    `smoke` keeps the benchmark's smoke rows only."""
    rows = [row for workload in workloads.WORKLOADS for row in workloads.build_rows(workload, seed, smoke)]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            os.makedirs(workloads.WORK_DIR)
            return [json.dumps(_run(row), ensure_ascii=False, sort_keys=True) for row in rows]
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    for line in dump_lines(int(sys.argv[1])):
        print(line)
