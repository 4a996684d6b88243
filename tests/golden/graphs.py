"""Dump the progress verdict on seeded random proof graphs, for a gate.

    PYTHONPATH=src python3 tests/golden/graphs.py N > dump.jsonl

For each seed 0..N-1 it draws one guarded sequent with
tests/oracles.gen_guarded_sequent, over ab for an even seed and abc for an
odd one, saturates it, and builds two seeded unroll_edge variants of the
saturated graph (none when the graph has no edge).  It checks each graph
and prints one JSON line per graph: the seed, which graph it is, the root
sequent, the node count, the reason, the violations, the lasso as node
names plus child indices (null when there is none) and the number of trace
automaton states.  Two checkouts whose dumps for an N are identical give
the same verdicts, reasons and lassos on those graphs.

The generator's defaults draw small graphs, so a second band follows: seeds
N..N + N//4 - 1 draw sequents of up to LARGE_SIZE AST nodes per formula and
LARGE_SIDE formulas per side, and go through the same steps.  A draw whose
saturation passes LARGE_BUDGET sequents prints one line instead, with reason
"budget" and null node count, lasso and trace-state count.  The lines for
seeds 0..N-1 do not depend on the band, so a dump made before it existed is
a prefix of one made now.
"""

from __future__ import annotations

import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from golden.scale import trace_state_counts  # noqa: E402
from oracles import gen_guarded_sequent, unroll_edge  # noqa: E402
from rll.calculus import Sequent, format_sequent  # noqa: E402
from rll.decide import BudgetExceededError, saturate  # noqa: E402
from rll.expr import Alphabet  # noqa: E402
from rll.proof import build_trace_automaton, check  # noqa: E402

LARGE_SIZE, LARGE_SIDE = 48, 5  # the second band's gen_guarded_sequent bounds
LARGE_BUDGET = 2000  # the second band's saturation budget, in sequents


def _root_sequent(p):
    """The root's sequent, read off the graph's formula table by names
    that rll has long had: the parent checkout of gates.py runs this file
    with its own tests/oracles.py."""
    formula = p.table.formulas.__getitem__
    lhs, rhs = (map(formula, p.table.numbers(mask)) for mask in (p.lhs[p.root], p.rhs[p.root]))
    return Sequent(lhs, rhs, p.alphabet)


def _record(seed, graph, p):
    r = check(p)
    lasso = None
    if r.lasso is not None:
        lasso = {
            "stem": [p.order[v] for v, _ in r.lasso.stem],
            "stem_edges": [j for _, j in r.lasso.stem],
            "cycle": [p.order[v] for v, _ in r.lasso.cycle],
            "cycle_edges": [j for _, j in r.lasso.cycle],
        }
    return {
        "seed": seed,
        "graph": graph,
        "sequent": format_sequent(_root_sequent(p)),
        "nodes": len(p.order),
        "reason": r.reason,
        "violations": list(r.violations),
        "lasso": lasso,
        "trace_states": sum(trace_state_counts(p.children, build_trace_automaton(p, [1] * len(p.order)))),
    }


def dump_lines(n: int):
    """One JSON line per graph, seed by seed: the saturated graph first,
    then its unroll_edge variants; seeds n.. are the larger band."""
    lines = []
    for seed in range(n + n // 4):
        rng = random.Random(seed)
        alphabet = Alphabet("abc" if seed % 2 else "ab")
        if seed < n:
            p = saturate(gen_guarded_sequent(rng, alphabet))
        else:
            s = gen_guarded_sequent(rng, alphabet, LARGE_SIZE, LARGE_SIDE)
            try:
                p = saturate(s, LARGE_BUDGET)
            except BudgetExceededError:
                record = {"seed": seed, "graph": "saturated", "sequent": format_sequent(s), "nodes": None,
                          "reason": "budget", "violations": [], "lasso": None, "trace_states": None}
                lines.append(json.dumps(record, ensure_ascii=False, sort_keys=True))
                continue
        graphs = [("saturated", p)]
        edges = [(v, j) for v, kids in enumerate(p.children) for j in range(len(kids))]
        if edges:
            for _ in range(2):
                v, j = rng.choice(edges)
                graphs.append(("unroll %s/%d" % (p.order[v], j), unroll_edge(p, v, j)))
        for graph, g in graphs:
            lines.append(json.dumps(_record(seed, graph, g), ensure_ascii=False, sort_keys=True))
    return lines


if __name__ == "__main__":
    for line in dump_lines(int(sys.argv[1])):
        print(line)
