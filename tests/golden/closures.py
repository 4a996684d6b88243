"""Dump the numbered closure and the colouring of many expressions, for a gate.

    PYTHONPATH=src python3 tests/golden/closures.py [N] > dump.jsonl

It takes the bundled expressions of rll.corpus by name, the deep texts
alt_text(2..6) and conj_text(2..5) of tests/oracles over abcdef, and N
(default 1000) seeded draws of tests/oracles.gen_expr over ab, seed k
drawing one expression of up to 16 AST nodes.  For each it prints one JSON
line: the expression's name, the closure size, a sha256 over the members'
printed texts and their successor numbers in member order, and the
colouring.  Two checkouts whose dumps are identical number the same
closures alike and colour them alike.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from oracles import alt_text, conj_text, gen_expr  # noqa: E402
from rll.automaton import default_coloring  # noqa: E402
from rll.corpus import EXPRESSIONS  # noqa: E402
from rll.expr import Alphabet, fl_closure, parse, pretty  # noqa: E402

AB, SIX = Alphabet("ab"), Alphabet("abcdef")
MAX_SIZE = 16  # the AST size bound of each draw


def _record(name, e):
    fl = fl_closure(e)
    digest = hashlib.sha256()
    for m, ks in zip(fl.members, fl.succ):
        digest.update(("%s %s\n" % (pretty(m), " ".join(map(str, ks)))).encode("utf-8"))
    return {
        "name": name,
        "size": len(fl.members),
        "sha256": digest.hexdigest(),
        "colouring": list(default_coloring(fl)),
    }


def dump_lines(draws: int) -> list:
    """The dump's lines, one per expression, for N = draws."""
    texts = [alt_text(d) for d in range(2, 7)] + [conj_text(k) for k in range(2, 6)]
    rows = list(EXPRESSIONS.items()) + [(text, parse(text, SIX)) for text in texts]
    for seed in range(draws):
        rng = random.Random(seed)
        rows.append(("gen_expr-%d" % seed, gen_expr(rng, AB, rng.randint(1, MAX_SIZE))))
    return [json.dumps(_record(name, e), ensure_ascii=False) for name, e in rows]


def main(argv) -> int:
    for line in dump_lines(int(argv[0]) if argv else 1000):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
