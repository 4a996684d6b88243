"""Regenerate the golden CLI capture in capture.json.

    PYTHONPATH=src python3 tests/golden/regenerate.py

Each case is one `rll` command line, run in process through rll.cli.main.
The capture records its exit code, its stdout and, for `export-apa --dot`,
the DOT file it writes.  tests/test_golden.py diffs the current behaviour
against it.  Regenerate only for an intended output change, and name that
change in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

CAPTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "capture.json")
DOT = "{dot}"  # stands for a scratch path in the argv of export-apa cases
SEEDS = (7, 20260815)


def cases():
    """(case id, argv) for every captured command line, in a fixed order."""
    from rll.calculus import format_sequent
    from rll.corpus import DECISIONS, name_table, proofs

    out = []
    for name, s, _ in DECISIONS:
        out.append(("decide/" + name, ["decide", "--alphabet", "ab", "--sequent", format_sequent(s), "--json"]))
    for name in proofs():
        out.append(("show/" + name, ["corpus", "show", name]))
    for seed in SEEDS:
        out.append(("corpus-run/%d" % seed, ["corpus", "run", "--seed", str(seed)]))
    for name in name_table():
        out.append(("complement/" + name, ["complement", "--alphabet", "ab", "--expr", name]))
        out.append(("export-apa/" + name, ["export-apa", "--alphabet", "ab", "--expr", name, "--dot", DOT]))
    return out


def run(argv):
    """Run one command line in process: {"exit", "stdout"}, plus "dot" when
    the command writes a DOT file."""
    from rll.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        dot_path = os.path.join(tmp, "apa.dot")
        real_argv = [dot_path if a == DOT else a for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(real_argv)
        result = {"exit": code, "stdout": out.getvalue()}
        if DOT in argv:
            with open(dot_path, encoding="utf-8") as f:
                result["dot"] = f.read()
    return result


def main() -> int:
    capture = {}
    for case_id, argv in cases():
        capture[case_id] = dict(argv=argv, **run(argv))
    with open(CAPTURE, "w", encoding="utf-8") as f:
        json.dump(capture, f, indent=1, ensure_ascii=False, sort_keys=True)
        f.write("\n")
    print("wrote %d cases to %s" % (len(capture), CAPTURE))
    return 0


if __name__ == "__main__":
    sys.exit(main())
