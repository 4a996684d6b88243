"""Alternating parity automata built from expressions.

An expression's closure becomes an automaton wholesale: the members are the
states, letter prefixes contribute letter transitions, every other one-step
reduct an epsilon transition.  Sums and 0 branch existentially, intersections
and T universally; states with a unique transition are existential by
convention.  The colouring assigns fixpoint states numbers that respect the
subformula order, odd for mu and even for nu, and acceptance of a word is
settled by playing the induced parity game (see apa_accepts).
"""

from __future__ import annotations

from .expr import Cap, Expr, FLClosure, Letter, Mu, Nu, Plus, Top, expr_sort_key, fl_closure, pretty, subformula_leq


class Coloring:
    """A colour per closure member: monotone along the subformula order,
    odd on mu-formulas, even on nu-formulas."""

    __slots__ = ("assignment",)

    def __init__(self, assignment):
        self.assignment = dict(assignment)
        for e, c in self.assignment.items():
            if not isinstance(c, int) or c < 0:
                raise ValueError("colour of %s must be a natural number, got %r" % (pretty(e), c))

    def __getitem__(self, e: Expr) -> int:
        return self.assignment[e]

    def __contains__(self, e):
        return e in self.assignment

    def items(self):
        return self.assignment.items()


def default_coloring(fl: FLClosure) -> Coloring:
    """The canonical colouring of a closure: fixpoint members are enumerated
    so subformulas come first (ties broken by the expression order), each
    getting the smallest number that is >= its predecessor's and has the
    required parity; every other member inherits the maximum colour of its
    fixpoint subformulas in the closure, or 0.  Computed once per closure
    and kept on it."""
    if fl.coloring is not None:
        return fl.coloring
    fixpoints = [m for m in fl.members if isinstance(m, (Mu, Nu))]
    remaining = sorted(fixpoints, key=expr_sort_key)
    order = []
    while remaining:
        pick = None
        for cand in remaining:
            if not any(o is not cand and subformula_leq(o, cand) for o in remaining):
                pick = cand
                break
        assert pick is not None, "subformula order on fixpoints has a cycle"
        remaining.remove(pick)
        order.append(pick)

    colour = {}
    prev = 0
    for m in order:
        want_odd = isinstance(m, Mu)
        c = prev if (prev % 2 == 1) == want_odd else prev + 1
        colour[m] = c
        prev = c
    for m in fl.members:
        if m not in colour:
            colour[m] = max((colour[g] for g in fixpoints if subformula_leq(g, m)), default=0)
    fl.coloring = Coloring(colour)
    return fl.coloring


class Apa:
    """Alternating parity automaton over the closure of an expression."""

    __slots__ = ("states", "existential", "universal", "transitions", "initial", "colour")

    def __init__(self, states, existential, universal, transitions, initial, colour):
        self.states = tuple(states)
        self.existential = frozenset(existential)
        self.universal = frozenset(universal)
        self.transitions = tuple(transitions)
        self.initial = initial
        self.colour = colour
        state_set = set(self.states)
        if self.existential | self.universal != state_set or self.existential & self.universal:
            raise ValueError("existential/universal must partition the states")
        for src, _letter, dst in self.transitions:
            if src not in state_set or dst not in state_set:
                raise ValueError("transition endpoints must be states")
        if initial not in state_set:
            raise ValueError("initial must be a state")


def build_apa(e: Expr) -> Apa:
    """The automaton of a closed expression: states are the closure members,
    transitions its tagged edges (letter steps carry their letter, the rest
    are epsilon), the initial state is the expression itself."""
    fl = fl_closure(e)
    colour = default_coloring(fl)
    transitions = []
    universal = set()
    for m in fl.members:
        if isinstance(m, (Top, Cap)):
            universal.add(m)
        for kind, target in fl.successors[m]:
            letter = m.letter if kind == "letter-step" else None
            transitions.append((m, letter, target))
    existential = set(fl.members) - universal
    return Apa(fl.members, existential, universal, transitions, fl.root, colour)


def apa_accepts(apa: Apa, w) -> bool:
    """Solve the acceptance game of the automaton on an ultimately periodic
    word: same arena as the evaluation game, played over the automaton's own
    states and transitions, with (offset o, apa.states[i]) numbered
    o*|states| + i."""
    # imported here to avoid a module cycle (semantics uses default_coloring)
    from .semantics import ParityGame, solve_zielonka

    index = {s: i for i, s in enumerate(apa.states)}
    by_source = [[] for _ in apa.states]
    for src, letter, dst in apa.transitions:
        by_source[index[src]].append((letter, index[dst]))

    m, n = len(apa.states), w.n_offsets()
    out = []
    for o in range(n):
        here, there, c = o * m, w.advance(o) * m, w.letter_at(o)
        for moves in by_source:
            out.append(tuple((here if letter is None else there) + j for letter, j in moves if letter in (None, c)))
    is_e = bytes(s not in apa.universal for s in apa.states)
    prio = tuple(apa.colour[s] for s in apa.states)
    winner, _ = solve_zielonka(ParityGame(is_e * n, prio * n, tuple(out)))
    return winner[index[apa.initial]] == 1


def export_dot(apa: Apa) -> str:
    """A deterministic DOT rendering: diamonds for existential states, boxes
    for universal ones, colours in the labels, epsilon edges marked."""
    index = {s: i for i, s in enumerate(apa.states)}
    lines = ["digraph apa {", "  rankdir=LR;", '  init [shape=point, label=""];']
    lines.append("  init -> s%d;" % index[apa.initial])
    for i, s in enumerate(apa.states):
        shape = "box" if s in apa.universal else "diamond"
        label = "%s | %d" % (pretty(s).replace('"', '\\"'), apa.colour[s])
        lines.append('  s%d [shape=%s, label="%s"];' % (i, shape, label))
    for src, letter, dst in apa.transitions:
        label = letter if letter is not None else "ε"
        lines.append('  s%d -> s%d [label="%s"];' % (index[src], index[dst], label))
    lines.append("}")
    return "\n".join(lines) + "\n"
