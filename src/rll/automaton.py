"""Alternating parity automata built from expressions.

An expression's numbered closure becomes an automaton wholesale: member k is
state k, with the root as state 0 and initial; letter prefixes contribute
letter transitions, every other one-step reduct an epsilon transition.  Sums
and 0 branch existentially, intersections and T universally; states with a
unique transition are existential by convention.  The colouring assigns
fixpoint states numbers that respect the subformula order, odd for mu and
even for nu.  Its acceptance game on a word is the evaluation game that
semantics.winning_offsets solves, over the same state numbers.
"""

from __future__ import annotations

from typing import NamedTuple

from .expr import Cap, Expr, FLClosure, Letter, Mu, Nu, Top, closed_subterms, expr_sort_key, fl_closure, pretty


def default_coloring(fl: FLClosure) -> tuple:
    """The canonical colouring of a closure, as a colour per member number:
    fixpoint members are enumerated so subformulas come first (ties broken
    by the expression order), each getting the smallest number that is >=
    its predecessor's and has the required parity; every other member
    inherits the maximum colour of its fixpoint subformulas in the closure,
    or 0.  Computed once per closure and kept on it.  Closure members are
    canonical and closed, so g is a subformula of m exactly when g is in
    closed_subterms(m), which is read once per member."""
    if fl.coloring is not None:
        return fl.coloring
    fixpoints = [m for m in fl.members if isinstance(m, (Mu, Nu))]
    below = {m: closed_subterms(m) for m in fl.members}
    remaining = sorted(fixpoints, key=expr_sort_key)
    colour = {}
    c = 0
    while remaining:  # the subformula order is a partial order, so a minimal one exists
        m = next(f for f in remaining if not any(g is not f and g in below[f] for g in remaining))
        remaining.remove(m)
        if c % 2 != isinstance(m, Mu):  # the next number with m's parity
            c += 1
        colour[m] = c
    fl.coloring = tuple(
        colour[m] if m in colour else max((colour[g] for g in below[m] if g in colour), default=0)
        for m in fl.members
    )
    return fl.coloring


class Apa(NamedTuple):
    """Alternating parity automaton over the numbered closure of an
    expression.  State k is the closure member states[k]; state 0 is
    initial.  universal[k] is 1 iff state k is universal (every other state
    is existential), transitions are (source, letter or None for epsilon,
    target) triples of state numbers, and colour[k] is state k's colour."""

    states: tuple
    universal: bytes
    transitions: tuple
    colour: tuple


def build_apa(e: Expr) -> Apa:
    """The automaton of a closed expression: states are the closure members,
    transitions its one-step reducts (letter steps carry their letter, the
    rest are epsilon), the initial state is the expression itself."""
    fl = fl_closure(e)
    transitions = tuple(
        (k, m.letter if isinstance(m, Letter) else None, j) for k, m in enumerate(fl.members) for j in fl.succ[k]
    )
    universal = bytes(isinstance(m, (Top, Cap)) for m in fl.members)
    return Apa(fl.members, universal, transitions, default_coloring(fl))


def export_dot(apa: Apa) -> str:
    """A deterministic DOT rendering: diamonds for existential states, boxes
    for universal ones, colours in the labels, epsilon edges marked."""
    lines = ["digraph apa {", "  rankdir=LR;", '  init [shape=point, label=""];', "  init -> s0;"]
    for k, s in enumerate(apa.states):
        shape = "box" if apa.universal[k] else "diamond"
        label = "%s | %d" % (pretty(s).replace('"', '\\"'), apa.colour[k])
        lines.append('  s%d [shape=%s, label="%s"];' % (k, shape, label))
    for src, letter, dst in apa.transitions:
        label = letter if letter is not None else "ε"
        lines.append('  s%d -> s%d [label="%s"];' % (src, dst, label))
    lines.append("}")
    return "\n".join(lines) + "\n"
