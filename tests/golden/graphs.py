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
"""

from __future__ import annotations

import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from oracles import gen_guarded_sequent, unroll_edge  # noqa: E402
from rll.calculus import format_sequent  # noqa: E402
from rll.decide import saturate  # noqa: E402
from rll.expr import Alphabet  # noqa: E402
from rll.proof import build_trace_automaton, check  # noqa: E402


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
        "sequent": format_sequent(p.sequent(p.root)),
        "nodes": len(p.order),
        "reason": r.reason,
        "violations": list(r.violations),
        "lasso": lasso,
        "trace_states": len(build_trace_automaton(p).states),
    }


def dump_lines(n: int):
    """One JSON line per graph, seed by seed: the saturated graph first,
    then its unroll_edge variants."""
    lines = []
    for seed in range(n):
        rng = random.Random(seed)
        p = saturate(gen_guarded_sequent(rng, Alphabet("abc" if seed % 2 else "ab")))
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
