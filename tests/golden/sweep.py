"""Decide every sequent between two small terms, for a gate.

    PYTHONPATH=src python3 tests/golden/sweep.py [MAX_LEFT [MAX_RIGHT]] > dump.jsonl

terms(n) lists every closed guarded term of at most n AST nodes over ab,
smaller terms first, each once: the enumeration names each binder by its
depth, as canonical does, so two distinct trees are two distinct nodes.
There are 54 such terms of at most 3 nodes and 318 of at most 4.  For every
sequent `l |- r` with l in terms(MAX_LEFT) and r in terms(MAX_RIGHT)
(default 4 and 4: 101,124 sequents), in that order, the dump decides it, and
for each block of 1,000 sequents it prints one JSON line: the block's
number and size, its tally of verdicts, and a sha256 over each sequent's
verdict, node count and countermodel.  The node count is that of the proof,
or of the saturated preproof that refutes the sequent.  Two checkouts whose
dumps are identical decide the small sequents alike, and a difference names
its block.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src")]

from rll.calculus import Sequent  # noqa: E402
from rll.decide import Proved, decide, saturate  # noqa: E402
from rll.expr import TOP, ZERO, Alphabet, Cap, Letter, Mu, Nu, Plus, Var, is_guarded  # noqa: E402

AB = Alphabet("ab")
BLOCK = 1000  # sequents per printed line


def _trees(size: int, depth: int) -> list:
    """Every term over ab of exactly size AST nodes whose free variables are
    among .0 .. .(depth-1), the binders above it; a binder here is .depth."""
    if size == 1:
        return [ZERO, TOP] + [Var(".%d" % k) for k in range(depth)]
    out = [Letter(a, t) for a in AB for t in _trees(size - 1, depth)]
    for op in (Plus, Cap):
        for left in range(1, size - 1):
            rights = _trees(size - 1 - left, depth)
            out += [op(x, y) for x in _trees(left, depth) for y in rights]
    for op in (Mu, Nu):
        out += [op(".%d" % depth, t) for t in _trees(size - 1, depth + 1)]
    return out


def terms(max_size: int) -> list:
    """The closed guarded terms over ab of at most max_size AST nodes, by size."""
    return [t for n in range(1, max_size + 1) for t in _trees(n, 0) if is_guarded(t)]


def dump_lines(max_left: int = 4, max_right: int = 4) -> list:
    """The dump's lines for the given side bounds."""
    rights = terms(max_right)
    records = []  # (verdict, node count, countermodel) per sequent
    for l in terms(max_left):
        for r in rights:
            s = Sequent({l}, {r}, AB)
            out = decide(s)
            if isinstance(out, Proved):
                records.append(("proved", len(out.proof.order), "-"))
            else:
                records.append(("refuted", len(saturate(s).order), str(out.word)))
    lines = []
    for start in range(0, len(records), BLOCK):
        block = records[start:start + BLOCK]
        verdicts = [verdict for verdict, _, _ in block]
        text = "".join("%s %d %s\n" % record for record in block)
        lines.append(json.dumps({
            "block": start // BLOCK, "sequents": len(block), "proved": verdicts.count("proved"),
            "refuted": verdicts.count("refuted"), "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        }))
    return lines


def main(argv) -> int:
    for line in dump_lines(*map(int, argv)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
