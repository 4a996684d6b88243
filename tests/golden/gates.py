"""Run the standing output gates against a parent checkout in one command.

    python3 tests/golden/gates.py PARENT_DIR

Copies PARENT_DIR to a temporary directory and overlays this checkout's
tests/golden/*.py on the copy, so that both trees run the same dump
scripts.  tests/oracles.py is not overlaid: each tree's graphs.py draws with
that tree's own oracles, which may use what only that tree's rll provides.
Then it runs every dump in DUMPS in both trees side by side, each script
from its own tree so that it imports that tree's rll and each run writing
to its own temporary files, and prints one line per dump:
`identical (N lines)`, or the first line where the two dumps differ.  It
exits 1 if any dump differs or fails to run, and 0 otherwise.  The capture
gate, tests/golden/capture.json, is checked by tests/test_golden.py.
"""

from __future__ import annotations

import contextlib
import glob
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
GOLDEN = os.path.join("tests", "golden")
# (script in tests/golden, its arguments): the dumps whose output must not change
DUMPS = (
    ("rows.py", "7"), ("rows.py", "20260815"), ("graphs.py", "1000"), ("scale.py",), ("closures.py", "1000"),
    ("sweep.py",),
)
SHOWN = 200  # characters of a differing line that are printed


def _dumps(trees, script: str, args) -> dict:
    """Per (name, tree) of trees, the exit code, stdout lines and stderr of
    one dump run in that tree.  The runs go side by side, and each writes
    to temporary files of its own, so that none waits on a full pipe."""
    with contextlib.ExitStack() as opened:
        started = {}
        for name, tree in trees:
            out, err = opened.enter_context(tempfile.TemporaryFile()), opened.enter_context(tempfile.TemporaryFile())
            command = [sys.executable, os.path.join(tree, GOLDEN, script), *args]
            started[name] = opened.enter_context(subprocess.Popen(command, cwd=tree, stdout=out, stderr=err)), out, err
        runs = {}
        for name, (run, out, err) in started.items():
            code = run.wait()
            out.seek(0)
            err.seek(0)
            runs[name] = code, out.read().decode("utf-8").splitlines(), err.read().decode("utf-8")
    return runs


def _first_difference(old, new) -> str:
    for k in range(max(len(old), len(new))):
        a = old[k] if k < len(old) else "(no line)"
        b = new[k] if k < len(new) else "(no line)"
        if a != b:
            return "differs at line %d\n  parent: %s\n  here:   %s" % (k + 1, a[:SHOWN], b[:SHOWN])
    return "identical (%d lines)" % len(new)


def main(argv) -> int:
    if len(argv) != 1 or not os.path.isdir(argv[0]):
        print("usage: gates.py PARENT_DIR", file=sys.stderr)
        return 2
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        parent = os.path.join(tmp, "parent")
        shutil.copytree(argv[0], parent, ignore=shutil.ignore_patterns(".git", "__pycache__"))
        for path in glob.glob(os.path.join(ROOT, GOLDEN, "*.py")):
            shutil.copy(path, os.path.join(parent, GOLDEN))
        for script, *args in DUMPS:
            runs = _dumps((("parent", parent), ("here", ROOT)), script, args)
            report = _first_difference(runs["parent"][1], runs["here"][1])
            for name, (code, _, err) in runs.items():
                if code != 0:
                    report = "failed %s with exit %d: %s" % (name, code, (err.strip().splitlines() or [""])[-1])
            failed |= not report.startswith("identical")
            print("%s: %s" % (" ".join([script, *args]), report), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
