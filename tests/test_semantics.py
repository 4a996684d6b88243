"""Membership of ultimately periodic words: game construction and solvers.

The two parity-game solvers are checked against each other, against a direct
denotational fixpoint computation (tests/oracles.py), and on synthetic games
where strategies are replayed move by move.
"""

import random

import pytest

from rll.expr import ZERO, Alphabet, Cap, ParseError, Plus, canonical, parse
from rll.semantics import (
    EvalPosition,
    ParityGame,
    UPWord,
    build_eval_game,
    member,
    parse_word,
    solve_spm,
    solve_zielonka,
)
from oracles import gen_expr, gen_word, member_denotational, ref_eval_game

AB = Alphabet("ab")


def w(text):
    return parse_word(text, AB)


def e(text):
    return parse(text, AB)


# ---------------------------------------------------------------------------
# words


def test_word_parsing_and_printing():
    u = w("ab(ba)^w")
    assert u.stem == "ab" and u.loop == "ba"
    assert str(u) == "ab(ba)^w"
    assert str(w("(a)^w")) == "(a)^w"
    assert parse_word("  (ab)^w ", AB) == w("(ab)^w")


def test_word_rejects_malformed_input():
    for bad in ["", "ab", "(a)^", "ab(a)", "(a)^w extra", "()^w", "a(b)^w(c)^w"]:
        with pytest.raises(ParseError):
            parse_word(bad, AB)
    with pytest.raises(ValueError):
        UPWord("a", "", AB)
    with pytest.raises(ValueError):
        UPWord("ac", "b", AB)


def test_word_offsets_wrap_into_the_loop():
    u = w("ab(ba)^w")
    assert u.n_offsets() == 4
    assert [u.letter_at(i) for i in range(6)] == ["a", "b", "b", "a", "b", "a"]
    assert u.advance(0) == 1 and u.advance(1) == 2
    assert u.advance(2) == 3 and u.advance(3) == 2  # wraps to the loop start


# ---------------------------------------------------------------------------
# closed-form memberships

F_A = "mu X. (a X + b X + nu Y. b Y)"   # finitely many a's
F_B = "mu X. (a X + b X + nu Y. a Y)"   # finitely many b's
I_A = "nu X. mu Y. (a X + b Y)"         # infinitely many a's
I_B = "nu X. mu Y. (b X + a Y)"         # infinitely many b's

CLOSED_FORM = [
    ("(b)^w", F_A, True),
    ("aab(b)^w", F_A, True),
    ("(a)^w", F_A, False),
    ("(ab)^w", F_A, False),
    ("(a)^w", F_B, True),
    ("(ab)^w", F_B, False),
    ("(a)^w", I_A, True),
    ("(ab)^w", I_A, True),
    ("(ba)^w", I_A, True),
    ("(b)^w", I_A, False),
    ("ab(b)^w", I_A, False),
    ("(b)^w", I_B, True),
    ("aa(ab)^w", I_B, True),
    ("(a)^w", I_B, False),
    ("(a)^w", "mu X. X", False),
    ("(b)^w", "mu X. X", False),
    ("(a)^w", "nu X. X", True),
    ("(ab)^w", "nu X. X", True),
    ("(a)^w", "nu X. a X", True),
    ("a(b)^w", "nu X. a X", False),
    ("ba(ab)^w", "nu X. (a X + b X)", True),
]


@pytest.mark.parametrize("word,expr,expected", CLOSED_FORM)
def test_closed_form_membership(word, expr, expected):
    assert member(w(word), e(expr)) is expected


def test_member_requires_a_closed_expression():
    with pytest.raises(ValueError):
        member(w("(a)^w"), parse("a X", AB))


# ---------------------------------------------------------------------------
# cross-validation of the game route against a denotational computation


def test_solvers_agree_with_denotational_fixpoints():
    rng = random.Random(20240815)
    for _ in range(500):
        expr = gen_expr(rng, AB, rng.randint(1, 7))
        stem, loop = gen_word(rng, AB)
        word = UPWord(stem, loop, AB)
        expected = member_denotational(stem, loop, expr)
        game = build_eval_game(word, expr)
        win_e, win_a, _, _ = solve_zielonka(game)
        root = EvalPosition(0, canonical(expr))
        assert (root in win_e) is expected
        # determinacy: every position is won by exactly one player
        assert win_e | win_a == frozenset(game.positions)
        assert not (win_e & win_a)
        assert solve_spm(game) == win_e


def test_membership_respects_the_lattice_operations():
    rng = random.Random(7)
    for _ in range(200):
        f = gen_expr(rng, AB, rng.randint(1, 5))
        g = gen_expr(rng, AB, rng.randint(1, 5))
        stem, loop = gen_word(rng, AB)
        word = UPWord(stem, loop, AB)
        mf, mg = member(word, f), member(word, g)
        assert member(word, Plus(f, g)) is (mf or mg)
        assert member(word, Cap(f, g)) is (mf and mg)
    assert not member(w("(ab)^w"), ZERO)


def test_membership_is_a_property_of_the_word_not_its_presentation():
    # rotating the loop one step while extending the stem, or doubling the
    # loop, leaves every membership unchanged
    rng = random.Random(99)
    for _ in range(150):
        expr = gen_expr(rng, AB, rng.randint(1, 6))
        stem, loop = gen_word(rng, AB)
        base = member(UPWord(stem, loop, AB), expr)
        rotated = UPWord(stem + loop[0], loop[1:] + loop[0], AB)
        doubled = UPWord(stem, loop + loop, AB)
        absorbed = UPWord(stem + loop, loop, AB)
        assert member(rotated, expr) is base
        assert member(doubled, expr) is base
        assert member(absorbed, expr) is base


# ---------------------------------------------------------------------------
# the solvers themselves, on synthetic games


def _random_game(rng, n_positions, max_priority, label=lambda i: i, duplicates=False):
    positions = [label(i) for i in range(n_positions)]
    owner = {p: rng.choice("EA") for p in positions}
    priority = {p: rng.randint(0, max_priority) for p in positions}
    moves = {}
    for p in positions:
        deg = rng.choice([0, 1, 1, 2, 2, 3])
        moves[p] = tuple(rng.choice(positions) for _ in range(deg))
        if duplicates and moves[p] and rng.random() < 0.5:
            moves[p] += (rng.choice(moves[p]),)
    return ParityGame(positions, owner, moves, priority)


def _labelled(game):
    """The owner, moves and priority of each position, keyed by label."""
    labels = game.positions
    owner = {p: "E" if e else "A" for p, e in zip(labels, game.is_e)}
    moves = {p: tuple(labels[q] for q in ms) for p, ms in zip(labels, game.out)}
    return owner, moves, dict(zip(labels, game.prio))


def _check_strategy(game, region, strat, player, parity):
    """Replaying `strat` from inside `region` must never leave it, never
    strand the player, and every reachable cycle must have min priority of
    the given parity.  Opponent deadlocks are terminal wins and fine."""
    owner, moves, priority = _labelled(game)
    succ = {}
    for p in region:
        if owner[p] == player:
            assert moves[p], "deadlocked %s-position counted as won: %r" % (player, p)
            assert p in strat, "no move chosen at %r" % (p,)
            assert strat[p] in region, "strategy move leaves the region at %r" % (p,)
            succ[p] = (strat[p],)
        else:
            for q in moves[p]:
                assert q in region, "opponent escapes the region from %r" % (p,)
            succ[p] = moves[p]
    # iterative Tarjan; any SCC containing a cycle must have the right parity
    index, low, onstack, order = {}, {}, set(), []
    stack = []
    counter = 0
    for start in region:
        if start in index:
            continue
        work = [(start, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                onstack.add(v)
            recurse = False
            for j in range(i, len(succ[v])):
                u = succ[v][j]
                if u not in index:
                    work.append((v, j + 1))
                    work.append((u, 0))
                    recurse = True
                    break
                if u in onstack:
                    low[v] = min(low[v], index[u])
            if recurse:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    u = stack.pop()
                    onstack.discard(u)
                    comp.append(u)
                    if u == v:
                        break
                cyclic = len(comp) > 1 or v in succ[v]
                if cyclic:
                    assert min(priority[u] for u in comp) % 2 == parity
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])


def test_solvers_and_strategies_on_random_games():
    rng = random.Random(4242)
    games = [_random_game(rng, rng.randint(1, 14), rng.randint(0, 5)) for _ in range(300)]
    # labels that are not numbers, duplicate moves, larger games
    labels = [lambda i: ("pos", i), lambda i: "p%d" % i, lambda i: (i % 3, str(i))]
    for _ in range(300):
        label = rng.choice(labels)
        games.append(_random_game(rng, rng.randint(1, 40), rng.randint(0, 7), label, duplicates=True))
    for game in games:
        win_e, win_a, strat_e, strat_a = solve_zielonka(game)
        assert win_e | win_a == frozenset(game.positions)
        assert not (win_e & win_a)
        assert solve_spm(game) == win_e
        _check_strategy(game, win_e, strat_e, "E", 0)
        _check_strategy(game, win_a, strat_a, "A", 1)


def test_deadlocks_lose_for_their_owner():
    g = ParityGame([0, 1], {0: "E", 1: "A"}, {0: (), 1: ()}, {0: 0, 1: 1})
    win_e, win_a, _, _ = solve_zielonka(g)
    assert win_a == frozenset({0})  # Eloise stuck
    assert win_e == frozenset({1})  # Abelard stuck
    assert solve_spm(g) == win_e


def test_a_position_missing_from_moves_is_a_deadlock():
    g = ParityGame(["x", "y"], {"x": "E", "y": "A"}, {}, {"x": 0, "y": 0})
    win_e, win_a, _, _ = solve_zielonka(g)
    assert win_a == frozenset({"x"})
    assert win_e == frozenset({"y"})
    assert solve_spm(g) == win_e


def test_the_empty_game_has_empty_regions():
    g = ParityGame([], {}, {}, {})
    assert solve_zielonka(g) == (frozenset(), frozenset(), {}, {})
    assert solve_spm(g) == frozenset()


def test_repeated_positions_are_rejected():
    with pytest.raises(ValueError, match="distinct"):
        ParityGame([0, 1, 0], {0: "E", 1: "A"}, {0: (1,), 1: (0,)}, {0: 0, 1: 1})


def test_eval_game_numbering_matches_the_reference_construction():
    rng = random.Random(515)
    for _ in range(250):
        expr = gen_expr(rng, AB, rng.randint(1, 8))
        stem, loop = gen_word(rng, AB)
        word = UPWord(stem, loop, AB)
        game = build_eval_game(word, expr)
        ref = ParityGame(*ref_eval_game(word, expr))
        assert game.positions == ref.positions
        assert (game.is_e, game.prio, game.out) == (ref.is_e, ref.prio, ref.out)


def test_eval_game_shape_on_a_letter_mismatch():
    # at an offset whose letter differs, a letter position has no moves
    game = build_eval_game(w("(b)^w"), e("a 0"))
    root = EvalPosition(0, e("a 0"))
    owner, moves, _ = _labelled(game)
    assert owner[root] == "E"
    assert moves[root] == ()
    win_e, win_a, _, _ = solve_zielonka(game)
    assert root in win_a


def test_unguarded_expressions_still_play():
    # mu X. X unfolds into itself forever on an odd priority, so Abelard wins
    # every position; nu X. X is the same loop with an even priority
    g0 = build_eval_game(w("(a)^w"), e("mu X. X"))
    win_e, _, _, _ = solve_zielonka(g0)
    assert not win_e
    g1 = build_eval_game(w("(a)^w"), e("nu X. X"))
    win_e, win_a, _, _ = solve_zielonka(g1)
    assert not win_a
