"""Regenerate the golden CLI capture in capture.json.

    PYTHONPATH=src python3 tests/golden/regenerate.py

Each case is one `rll` command line, run in process through rll.cli.main.
The capture records its exit code, its stdout, its stderr when that is not
empty and, for `export-apa --dot`, the DOT file it writes.  An argument
`{proof:NAME}` stands for a scratch file holding the proof text PROOF_TEXTS
gives NAME, or for a missing file when NAME has none; the scratch path reads
as the placeholder again in the output.  tests/test_golden.py diffs the current behaviour
against it.  Regenerate only for an intended output change, and name that
change in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from unittest import mock

CAPTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "capture.json")
DOT = "{dot}"  # stands for a scratch path in the argv of export-apa cases
PROOF = re.compile(r"\{proof:([^}]*)\}")  # stands for a scratch proof file
SEEDS = (7, 20260815)
# hand-written proof texts, beside the bundled fixtures
EXTRA_PROOF_TEXTS = {
    "local": "alphabet: ab\nnode n0: a T |- ; rule h_a ; children n0\nroot n0\n",
    "malformed": "node n0: a T |- ; rule h_a ; children n0\n",
    # several open formulas: the error names the first in printed order
    "open": "alphabet: ab\nnode n0: b Y, a X, a Z |- b b V, a W ; rule h_a ; children n0\nroot n0\n",
}


def proof_texts():
    """Proof name -> the text of its scratch file."""
    from rll.corpus import proofs
    from rll.proof import serialize_proof

    texts = {name: serialize_proof(p) for name, (p, _) in proofs().items()}
    texts.update(EXTRA_PROOF_TEXTS)
    return texts


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

    def both(case_id, argv):  # the command as text and as a JSON envelope
        out.append((case_id, argv))
        out.append((case_id + "/json", argv + ["--json"]))

    both("parse/valid", ["parse", "--alphabet", "ab", "--expr", "f_a + a T"])
    both("parse/unclosed", ["parse", "--alphabet", "ab", "--expr", "mu X. (X"])
    both("member/member", ["member", "--alphabet", "ab", "--word", "(ab)^w", "--expr", "i_a"])
    both("member/nonmember", ["member", "--alphabet", "ab", "--word", "a(b)^w", "--expr", "i_a"])
    both("member/open", ["member", "--alphabet", "ab", "--word", "(a)^w", "--expr", "X"])
    for name in list(proofs()) + list(EXTRA_PROOF_TEXTS) + ["missing"]:
        both("check/" + name, ["check", "{proof:%s}" % name])
    both("decide/unguarded", ["decide", "--alphabet", "ab", "--sequent", "mu X. X |-"])
    both("decide/text-proved", ["decide", "--alphabet", "ab", "--sequent", "only-a |- i_a"])
    both("decide/text-refuted", ["decide", "--alphabet", "ab", "--sequent", "i_a |- f_a"])
    both("decide/open", ["decide", "--alphabet", "ab", "--sequent", "a X, b Y, a Z, b b V |- b W, a a U"])
    out.append(("complement/json", ["complement", "--alphabet", "ab", "--expr", "inf-a", "--json"]))
    out.append(("export-apa/json", ["export-apa", "--alphabet", "ab", "--expr", "inf-a", "--dot", DOT, "--json"]))
    both("corpus-run/filtered", ["corpus", "run", "--filter", "fin-a-cap"])
    both("corpus-run/no-match", ["corpus", "run", "--filter", "zzz"])
    both("corpus-list", ["corpus", "list"])
    for name in ("inf-a", "inf-a-not-fin-a", "fin-a-cap-only-a-empty", "zzz"):
        both("corpus-show/" + name, ["corpus", "show", name])
    # argparse's own output: help, and usage errors raised before any handler runs
    out.append(("help", ["--help"]))
    out.append(("help/member", ["member", "--help"]))
    out.append(("help/corpus-run", ["corpus", "run", "--help"]))
    out.append(("usage/missing-flag", ["member", "--alphabet", "ab", "--expr", "i_a"]))
    out.append(("usage/unknown-command", ["frobnicate"]))
    return out


def run(argv):
    """Run one command line in process, with COLUMNS=80: {"exit", "stdout"},
    plus "stderr" when it is not empty and "dot" when the command writes a
    DOT file."""
    from rll.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        paths = {DOT: os.path.join(tmp, "apa.dot")}  # placeholder -> scratch path
        for arg in argv:
            m = PROOF.fullmatch(arg)
            if m:
                paths[arg] = os.path.join(tmp, m.group(1) + ".prf")
                text = proof_texts().get(m.group(1))
                if text is not None:
                    with open(paths[arg], "w", encoding="utf-8") as f:
                        f.write(text)
        real_argv = [paths.get(a, a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        # argparse wraps help and usage text at the width COLUMNS gives
        with (
            contextlib.redirect_stdout(out),
            contextlib.redirect_stderr(err),
            mock.patch.dict(os.environ, {"COLUMNS": "80"}),
        ):
            code = main(real_argv)

        def unpath(text):
            for placeholder, path in paths.items():
                text = text.replace(path, placeholder)
            return text

        result = {"exit": code, "stdout": unpath(out.getvalue())}
        if err.getvalue():
            result["stderr"] = unpath(err.getvalue())
        if DOT in argv:
            with open(paths[DOT], encoding="utf-8") as f:
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
