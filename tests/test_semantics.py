"""Membership of ultimately periodic words: game construction and solvers.

The two parity-game solvers are checked against each other, against a direct
denotational fixpoint computation (tests/oracles.py), and on synthetic games
where strategies are replayed move by move.
"""

import random

import pytest

from rll.expr import ZERO, Alphabet, Cap, ParseError, Plus, canonical, fl_closure, parse, pretty
from rll.semantics import (
    ParityGame,
    UPWord,
    build_eval_game,
    member,
    parse_word,
    solve_spm,
    solve_zielonka,
)
from oracles import EvalPosition, gen_expr, gen_word, labelled_game, member_denotational, ref_eval_game

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
        winner, choice = solve_zielonka(game)
        assert winner[fl_closure(expr).index(canonical(expr))] == expected
        assert len(winner) == len(game.positions)
        assert solve_spm(game) == winner
        _check_strategy(game, winner, choice, 1)
        _check_strategy(game, winner, choice, 0)


def test_large_games_agree_with_denotational_fixpoints():
    # six games of 2,000 to 25,000 positions over long words, too large for
    # solve_spm: the winner at every offset's root and at sampled positions
    # o*m + k must be membership of the suffix at o in fl.members[k]
    rng = random.Random(2580)
    seen = set()
    for target in (2000, 4000, 7000, 11000, 17000, 25000):
        alphabet = Alphabet(rng.choice(["ab", "abc"]))
        expr = gen_expr(rng, alphabet, 30)
        while len(fl_closure(expr)) < target // 250:
            expr = rng.choice((Cap, Plus))(expr, gen_expr(rng, alphabet, 30))
        fl = fl_closure(expr)
        m, n = len(fl), target // len(fl)
        cut = rng.randint(n // 4, n // 2)
        loop_letters = rng.sample(alphabet.letters, rng.randint(1, len(alphabet.letters)))
        stem = "".join(rng.choice(alphabet.letters) for _ in range(cut))
        loop = "".join(rng.choice(loop_letters) for _ in range(n - cut))
        game = build_eval_game(UPWord(stem, loop, alphabet), expr)
        assert 2000 <= len(game.positions) <= 25000
        winner, _ = solve_zielonka(game)

        def suffix(o):
            if o < cut:
                return stem[o:], loop
            return "", loop[o - cut:] + loop[:o - cut]

        root = fl.index(fl.root)
        checks = [(o, root) for o in range(n)] + [(rng.randrange(n), rng.randrange(m)) for _ in range(50)]
        for o, k in checks:
            expected = member_denotational(*suffix(o), fl.members[k])
            assert winner[o * m + k] == expected, (pretty(expr), stem, loop, o, k)
            seen.add(expected)
    assert seen == {True, False}


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
    return labelled_game(positions, owner, moves, priority)[1]


def _check_strategy(game, winner, choice, player):
    """Replaying `choice` inside the winning region of `player` (1 for
    Eloise, 0 for Abelard) must never leave it and never strand the player,
    and every reachable cycle must have a min priority of the player's
    parity.  Opponent deadlocks are terminal wins and fine."""
    region = [p for p in game.positions if winner[p] == player]
    succ = {}
    for p in region:
        if game.is_e[p] == player:
            assert game.out[p], "deadlocked position %d counted as won" % p
            assert choice[p] in game.out[p], "choice at %d is not a move" % p
            assert winner[choice[p]] == player, "strategy move leaves the region at %d" % p
            succ[p] = (choice[p],)
        else:
            for q in game.out[p]:
                assert winner[q] == player, "opponent escapes the region from %d" % p
            succ[p] = game.out[p]
    # iterative Tarjan; any SCC containing a cycle must have the right parity
    index, low, onstack = {}, {}, set()
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
                    assert min(game.prio[u] for u in comp) % 2 != player
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
        winner, choice = solve_zielonka(game)
        assert len(winner) == len(choice) == len(game.positions)
        assert set(winner) <= {0, 1}
        assert solve_spm(game) == winner
        _check_strategy(game, winner, choice, 1)
        _check_strategy(game, winner, choice, 0)


def test_deadlocks_lose_for_their_owner():
    _, g = labelled_game([0, 1], {0: "E", 1: "A"}, {0: (), 1: ()}, {0: 0, 1: 1})
    winner, _ = solve_zielonka(g)
    assert winner == b"\0\1"  # Eloise stuck at 0, Abelard stuck at 1
    assert solve_spm(g) == winner


def test_a_position_missing_from_moves_is_a_deadlock():
    labels, g = labelled_game(["x", "y"], {"x": "E", "y": "A"}, {}, {"x": 0, "y": 0})
    assert labels == ("x", "y") and g.out == ((), ())
    winner, _ = solve_zielonka(g)
    assert winner == b"\0\1"
    assert solve_spm(g) == winner


def test_the_empty_game_has_empty_regions():
    g = ParityGame(b"", (), ())
    assert g.positions == range(0)
    assert solve_zielonka(g) == (b"", [])
    assert solve_spm(g) == b""


def test_repeated_positions_are_rejected():
    with pytest.raises(ValueError, match="distinct"):
        labelled_game([0, 1, 0], {0: "E", 1: "A"}, {0: (1,), 1: (0,)}, {0: 0, 1: 1})


def test_malformed_labelled_games_are_rejected():
    owner, moves, priority = {0: "E", 1: "A"}, {0: (1,), 1: (0,)}, {0: 0, 1: 1}
    assert labelled_game([0, 1], owner, moves, priority)[1].out == ((1,), (0,))
    with pytest.raises(ValueError, match="owner"):
        labelled_game([0, 1], {0: "E", 1: "B"}, moves, priority)
    with pytest.raises(ValueError, match="priority"):
        labelled_game([0, 1], owner, moves, {0: 0})
    with pytest.raises(ValueError, match="priority"):
        labelled_game([0, 1], owner, moves, {0: 0, 1: -1})
    with pytest.raises(ValueError, match="arena"):
        labelled_game([0, 1], owner, {0: (2,)}, priority)


def test_eval_game_numbering_matches_the_reference_construction():
    rng = random.Random(515)
    for _ in range(250):
        expr = gen_expr(rng, AB, rng.randint(1, 8))
        stem, loop = gen_word(rng, AB)
        word = UPWord(stem, loop, AB)
        game = build_eval_game(word, expr)
        fl = fl_closure(expr)
        assert fl.members[0] is canonical(expr)  # (0, expr) is position 0
        assert len(game.positions) == word.n_offsets() * len(fl)
        assert game.positions == range(len(game.positions))
        labels, ref = labelled_game(*ref_eval_game(word, expr))
        assert labels == tuple(EvalPosition(o, f) for o in range(word.n_offsets()) for f in fl.members)
        assert (game.is_e, game.prio, game.out) == (ref.is_e, ref.prio, ref.out)


def test_eval_game_shape_on_a_letter_mismatch():
    # at an offset whose letter differs, a letter position has no moves
    game = build_eval_game(w("(b)^w"), e("a 0"))
    root = fl_closure(e("a 0")).index(e("a 0"))
    assert game.is_e[root] == 1
    assert game.out[root] == ()
    winner, _ = solve_zielonka(game)
    assert winner[root] == 0


def test_unguarded_expressions_still_play():
    # mu X. X unfolds into itself forever on an odd priority, so Abelard wins
    # every position; nu X. X is the same loop with an even priority
    g0 = build_eval_game(w("(a)^w"), e("mu X. X"))
    assert not any(solve_zielonka(g0)[0])
    g1 = build_eval_game(w("(a)^w"), e("nu X. X"))
    assert all(solve_zielonka(g1)[0])
