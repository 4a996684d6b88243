"""Closure automata: states, transition structure, colouring, DOT export."""

import gc
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from rll import expr as expr_module
from rll.expr import Alphabet, Cap, Letter, Mu, Nu, Plus, ast_size, canonical, fl_closure, parse, unfold
from rll.automaton import build_apa, default_coloring, export_dot
from rll.semantics import UPWord, member, parse_word
from oracles import (
    alt_text,
    build_eval_game,
    conj_text,
    gen_expr,
    gen_word,
    member_denotational,
    ref_acceptance_game,
    ref_subformula_leq,
    solve_zielonka,
)

AB = Alphabet("ab")
SIX = Alphabet("abcdef")


def e(text):
    return parse(text, AB)


# ---------------------------------------------------------------------------
# colouring


def colour_of(root, f):
    fl = fl_closure(root)
    return default_coloring(fl)[fl.members.index(f)]


def test_colouring_of_the_always_a_loop():
    loop = e("nu X. a X")
    assert colour_of(loop, loop) == 0
    assert colour_of(loop, unfold(loop)) == 0


def test_colouring_of_the_empty_fixpoint():
    assert default_coloring(fl_closure(e("mu X. X"))) == (1,)


def test_colouring_of_infinitely_many_a():
    i_a = e("nu X. mu Y. (a X + b Y)")
    assert colour_of(i_a, i_a) == 0
    assert colour_of(i_a, unfold(i_a)) == 1  # the inner mu dominates the outer nu


def test_colouring_of_finitely_many_a():
    f_a = e("mu X. (a X + b X + nu Y. b Y)")
    assert colour_of(f_a, f_a) == 1
    assert colour_of(f_a, e("nu Y. b Y")) == 0
    assert colour_of(f_a, e("b nu Y. b Y")) == 0
    assert colour_of(f_a, unfold(f_a)) == 1


CORPUS = [
    "mu X. X",
    "nu X. X",
    "nu X. a X",
    "nu X. (a X + b X)",
    "mu X. (a X + b X + nu Y. b Y)",
    "mu X. (a X + b X + nu Y. a Y)",
    "nu X. mu Y. (a X + b Y)",
    "nu X. mu Y. (b X + a Y)",
    "(mu X. (a X + b X + nu Y. b Y)) & nu X. mu Y. (a X + b Y)",
]


# the high-alternation expressions of the deep membership rows, with their
# colourings pinned, since no golden line shows them
DEEP_COLOURINGS = {
    alt_text(3): (0, 1, 2, 2, 1, 2, 0, 1),
    alt_text(4): (0, 1, 2, 3, 3, 2, 3, 1, 2, 0, 1),
    alt_text(5): (0, 1, 2, 3, 4, 4, 3, 4, 2, 3, 1, 2, 0, 1),
    alt_text(6): (0, 1, 2, 3, 4, 5, 5, 4, 5, 3, 4, 2, 3, 1, 2, 0, 1),
    conj_text(2): (2, 0, 2, 1, 3, 1, 3, 0, 1, 2, 3),
    conj_text(3): (4, 2, 4, 0, 2, 5, 1, 3, 5, 1, 3, 5, 5, 1, 1, 3, 3, 4, 5, 0, 1, 2, 3),
    conj_text(4): (
        6, 4, 6, 2, 4, 7, 0, 2, 5, 7, 1, 3, 5, 7, 7, 1, 3, 5, 5, 7, 7, 1, 1, 3, 3, 5, 5, 6, 7, 1, 1, 3, 3, 4, 5,
        0, 1, 2, 3,
    ),
    conj_text(5): (
        8, 6, 8, 4, 6, 9, 2, 4, 7, 9, 0, 2, 5, 7, 9, 9, 1, 3, 5, 7, 7, 9, 9, 1, 3, 5, 5, 7, 7, 9, 9, 1, 1, 3, 3,
        5, 5, 7, 7, 8, 9, 1, 1, 3, 3, 5, 5, 6, 7, 1, 1, 3, 3, 4, 5, 0, 1, 2, 3,
    ),
}


# the corpus, the deep expressions, and seeded random expressions
COLOURING_INPUTS = [pytest.param(text, id=text) for text in CORPUS + list(DEEP_COLOURINGS)] + [
    pytest.param(seed, id="gen_expr-%d" % seed) for seed in range(200)
]


@pytest.mark.parametrize("text", DEEP_COLOURINGS)
def test_deep_colourings_are_pinned(text):
    assert default_coloring(fl_closure(parse(text, SIX))) == DEEP_COLOURINGS[text]


def test_colouring_renames_no_open_term(monkeypatch):
    # only a closed subterm can equal a closed fixpoint, so the subformula
    # order never renames an open one
    gc.collect()  # frees any alt-6 nodes, and the subterm sets they keep, from earlier tests
    fl = fl_closure(parse(alt_text(6), SIX))
    assert all(m._subterms is None for m in fl.members)
    real, opened = expr_module.canonical, []

    def counting(t):
        if t._free:
            opened.append(t)
        return real(t)

    monkeypatch.setattr(expr_module, "canonical", counting)
    assert default_coloring(fl) == DEEP_COLOURINGS[alt_text(6)]
    assert opened == []


def test_closing_and_colouring_the_deep_expressions_builds_few_terms():
    # a time-only pin: a closed subterm's canonical form is built from its
    # children's, or carried by the shift that moved it, one memo serves a
    # closure's unfoldings, and the colouring reads each member's closed
    # subterms once.  Closing and colouring these expressions made 6,028
    # Expr constructor calls and 7,251 _shift calls when each closed
    # subterm was shifted down by a walk of its own and each unfolding kept
    # its own memo; now 2,416 and 2,919.  Counted in a fresh process, whose
    # intern table holds none of their unfoldings
    script = """
import gc, sys
import rll.expr
from rll.automaton import default_coloring
from rll.expr import Alphabet, fl_closure, parse
from oracles import alt_text, conj_text
six = Alphabet("abcdef")
roots = [parse(alt_text(d), six) for d in range(3, 7)] + [parse(conj_text(k), six) for k in range(3, 6)]
calls = shifts = 0
real_new, real_shift = rll.expr.Expr.__new__, rll.expr._shift
def counting_new(cls, *fields):
    global calls
    calls += 1
    return real_new(cls, *fields)
def counting_shift(*args):
    global shifts
    shifts += 1
    return real_shift(*args)
rll.expr.Expr.__new__, rll.expr._shift = counting_new, counting_shift
gc.disable()
try:
    for root in roots:
        default_coloring(fl_closure(root))
finally:
    gc.enable()
print(calls, shifts)
"""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(expr_module.__file__).resolve().parents[1]), str(tests), env.get("PYTHONPATH", "")]
    )
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    calls, shifts = map(int, r.stdout.split())
    assert calls <= 2600 and shifts <= 3100, (calls, shifts)


@pytest.mark.parametrize("source", COLOURING_INPUTS)
def test_colouring_invariants(source):
    if isinstance(source, str):
        expr = parse(source, SIX)
    else:
        rng = random.Random(source)
        expr = gen_expr(rng, AB, rng.randint(1, 10))
    fl = fl_closure(expr)
    col = default_coloring(fl)
    assert len(col) == len(fl.members)
    assert all(isinstance(c, int) and c >= 0 for c in col)
    colour = dict(zip(fl.members, col))
    fixpoints = [m for m in fl.members if isinstance(m, (Mu, Nu))]
    for m in fixpoints:
        assert colour[m] % 2 == (1 if isinstance(m, Mu) else 0)
    for g in fixpoints:
        for m in fixpoints:
            if ref_subformula_leq(g, m):
                assert colour[g] <= colour[m]
    for m in fl.members:
        if not isinstance(m, (Mu, Nu)):
            inner = [colour[g] for g in fixpoints if ref_subformula_leq(g, m)]
            assert colour[m] == max(inner, default=0)
    assert max(col) <= max(len(fixpoints), 1)


# ---------------------------------------------------------------------------
# automaton construction


def test_automaton_of_the_empty_fixpoint():
    apa = build_apa(e("mu X. X"))
    assert apa.states == (e("mu X. X"),)  # state 0, the initial state
    assert apa.transitions == ((0, None, 0),)  # a single epsilon self-loop
    assert apa.universal == b"\0"
    assert apa.colour == (1,)


def test_automaton_of_the_always_a_loop():
    apa = build_apa(e("nu X. a X"))
    assert apa.states == (e("nu X. a X"), unfold(e("nu X. a X")))
    assert apa.transitions == ((0, None, 1), (1, "a", 0))
    assert apa.universal == b"\0\0"


def test_universal_states_are_intersections_and_top():
    apa = build_apa(e("(a T) & (T + 0)"))
    universal = {s for s, u in zip(apa.states, apa.universal) if u}
    assert universal == {e("(a T) & (T + 0)"), e("T")}
    assert set(apa.states) - universal == {e("T + 0"), e("a T"), e("0")}


def test_state_count_is_bounded_by_the_expression_size():
    rng = random.Random(5)
    for _ in range(200):
        expr = canonical(gen_expr(rng, AB, rng.randint(1, 8)))
        apa = build_apa(expr)
        assert len(apa.states) <= ast_size(expr)
        assert apa.states[0] is expr
        # transitions mirror the one-step reducts of each state's constructor
        expected = set()
        for m in apa.states:
            if isinstance(m, Letter):
                expected.add((m, m.letter, m.body))
            elif isinstance(m, (Plus, Cap)):
                expected |= {(m, None, m.left), (m, None, m.right)}
            elif isinstance(m, (Mu, Nu)):
                expected.add((m, None, unfold(m)))
        assert {(apa.states[s], a, apa.states[t]) for s, a, t in apa.transitions} == expected


# ---------------------------------------------------------------------------
# acceptance


def test_acceptance_examples():
    # the automaton's acceptance game is the evaluation game, so acceptance
    # is membership
    aw = e("nu X. a X")
    assert member(parse_word("(a)^w", AB), aw)
    assert not member(parse_word("a(b)^w", AB), aw)
    i_a = e("nu X. mu Y. (a X + b Y)")
    assert member(parse_word("(ab)^w", AB), i_a)
    assert not member(parse_word("ab(b)^w", AB), i_a)


def test_acceptance_agrees_with_membership():
    # the acceptance game laid out from the automaton's own transitions is
    # the evaluation game, array for array, and Eloise wins it from (0,
    # state 0) iff the word lies in the language
    rng = random.Random(33)
    for _ in range(500):
        expr = gen_expr(rng, AB, rng.randint(1, 7))
        stem, loop = gen_word(rng, AB)
        word = UPWord(stem, loop, AB)
        ref = ref_acceptance_game(build_apa(expr), word)
        game = build_eval_game(word, expr)
        assert (ref.is_e, ref.prio, ref.out) == (game.is_e, game.prio, game.out)
        assert solve_zielonka(ref)[0][0] == member_denotational(stem, loop, expr)


# ---------------------------------------------------------------------------
# DOT export


def test_dot_export_of_the_empty_fixpoint():
    assert export_dot(build_apa(e("mu X. X"))) == (
        "digraph apa {\n"
        "  rankdir=LR;\n"
        '  init [shape=point, label=""];\n'
        "  init -> s0;\n"
        '  s0 [shape=diamond, label="mu X. X | 1"];\n'
        '  s0 -> s0 [label="ε"];\n'
        "}\n"
    )


def test_dot_export_is_deterministic_and_complete():
    rng = random.Random(8)
    for _ in range(50):
        expr = gen_expr(rng, AB, rng.randint(1, 7))
        apa = build_apa(expr)
        dot = export_dot(apa)
        assert dot == export_dot(build_apa(expr))
        assert dot.count("[shape=") == len(apa.states) + 1  # + the init point
        assert dot.count("shape=box") == sum(apa.universal)
