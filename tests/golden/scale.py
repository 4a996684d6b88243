"""Dump the trace automaton and the progress verdict on the scale rows, for a gate.

    PYTHONPATH=src python3 tests/golden/scale.py [--stretch] > dump.jsonl

Each row is one sequent over its alphabet: the complement round trips
`e & complement(e) |-` of fin_c and conj-2/4, and the refuted 3-letter row
`inf-a3 & inf-b3 |- inf-c3 + fin-a3`.  --stretch adds the round trip of
fin-d4, about 163k proof nodes and over 1 GB of memory.  For each row it
saturates the sequent, builds the trace automaton, checks the graph and
prints one JSON line: the row name, the node count, the number of trace
automaton states, a sha256 over the automaton's initials, reach and
accepting tables, the reason and the lasso as node names plus child
indices (null when there is none).  A second line follows the graph through
a proof file: serialize_proof, parse_proof and serialize_proof again, with
the sha256 of the second text and the reason that check gives on the graph
read back.  Two checkouts whose dumps are identical build the same automata,
give the same verdicts and lassos, and write and read the same proof files.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from functools import reduce
from operator import or_

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src")]

from rll.calculus import parse_sequent  # noqa: E402
from rll.decide import saturate  # noqa: E402
from rll.expr import Alphabet, complement, parse, pretty  # noqa: E402
from rll.proof import build_trace_automaton, check, parse_proof, serialize_proof  # noqa: E402

INF_A3 = "nu X. mu Y. (a X + b Y + c Y)"
INF_B3 = "nu X. mu Y. (b X + a Y + c Y)"
INF_C3 = "nu X. mu Y. (c X + a Y + b Y)"
FIN_A3 = "mu X. (a X + b X + c X + nu Y. (b Y + c Y))"
INF_A4 = "nu X. mu Y. (a X + b Y + c Y + d Y)"
INF_B4 = "nu X. mu Y. (b X + a Y + c Y + d Y)"

# row name -> (alphabet, the expression e of a round trip e & complement(e) |-,
# or a whole sequent)
ROWS = {
    "fin_c": ("abc", "mu X. (a X + b X + c X + nu Y. (a Y + b Y))"),
    "conj-2/4": ("abcd", "(%s) & (%s)" % (INF_A4, INF_B4)),
    "refuted-3": ("abc", "%s & %s |- %s + %s" % (INF_A3, INF_B3, INF_C3, FIN_A3)),
}
STRETCH_ROWS = {
    "fin-d4": ("abcd", "mu X. (a X + b X + c X + d X + nu Y. (a Y + b Y + c Y))"),
}


def sequent_text(alphabet: Alphabet, text: str) -> str:
    """The row's sequent: text itself, or the round trip of the expression text."""
    if "|-" in text:
        return text
    return "(%s) & (%s) |-" % (text, pretty(complement(parse(text, alphabet), alphabet)))


def automaton_digest(automaton) -> str:
    """A sha256 over the automaton's initials, reach and accepting tables."""
    h = hashlib.sha256(repr(automaton.initials).encode())
    for rows, accepting in zip(automaton.reach, automaton.accepting):
        h.update(repr((rows, accepting)).encode())
    return h.hexdigest()


def trace_state_counts(children, automaton) -> list:
    """The number of the automaton's states at each node of the graph with
    these children, read off its initials and reach tables alone: a node
    with children has one reach row per state on each out-edge, any other
    node as many states as the highest bit that a row into it sets, and the
    root at least its initial states."""
    counts = [len(per_edge[0]) if per_edge else 0 for per_edge in automaton.reach]
    for kids, per_edge in zip(children, automaton.reach):
        for child, rows in zip(kids, per_edge):
            counts[child] = max(counts[child], reduce(or_, rows, 0).bit_length())
    counts[automaton.root] = max(counts[automaton.root], len(automaton.initials))
    return counts


def saturated(name: str):
    """The saturated proof graph of a row."""
    letters, text = dict(ROWS, **STRETCH_ROWS)[name]
    alphabet = Alphabet(letters)
    return saturate(parse_sequent(sequent_text(alphabet, text), alphabet))


def dump_line(name: str, p=None) -> str:
    if p is None:
        p = saturated(name)
    automaton = build_trace_automaton(p, [1] * len(p.order))  # every node live: the whole automaton
    r = check(p)
    lasso = None
    if r.lasso is not None:
        lasso = {
            "stem": [p.order[v] for v, _ in r.lasso.stem],
            "stem_edges": [j for _, j in r.lasso.stem],
            "cycle": [p.order[v] for v, _ in r.lasso.cycle],
            "cycle_edges": [j for _, j in r.lasso.cycle],
        }
    return json.dumps({
        "row": name,
        "nodes": len(p.order),
        "trace_states": sum(trace_state_counts(p.children, automaton)),
        "automaton_sha256": automaton_digest(automaton),
        "reason": r.reason,
        "lasso": lasso,
    }, sort_keys=True)


def round_trip_line(name: str, p) -> str:
    """The row's graph written to a proof file, read back and written
    again: the sha256 of the second text and the reason check gives on the
    graph read back."""
    again = parse_proof(serialize_proof(p))
    return json.dumps({
        "row": name,
        "file_sha256": hashlib.sha256(serialize_proof(again).encode()).hexdigest(),
        "file_reason": check(again).reason,
    }, sort_keys=True)


def main(argv) -> int:
    for name in list(ROWS) + (list(STRETCH_ROWS) if "--stretch" in argv else []):
        p = saturated(name)
        print(dump_line(name, p), flush=True)
        print(round_trip_line(name, p), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
