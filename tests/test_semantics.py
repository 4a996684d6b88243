"""Membership of ultimately periodic words: game construction, the solvers
and the certificate of the explicit solver's strategies.

The explicit evaluation game and Zielonka's solver over it, both kept in
tests/oracles.py, are checked against the small-progress-measures oracle
and a direct denotational fixpoint computation, and the solver's winning
strategies against first_uncertified, on evaluation games and on synthetic
ones; the certificate itself must flag planted faults.  The bitmask solver
behind member (winning_offsets) must name the same winner as the explicit
one at every offset and closure member of every evaluation game built here,
and over words laid end to end each word's bits must be its own solve.
"""

import random

import pytest

from rll.expr import ZERO, Alphabet, Cap, ParseError, Plus, canonical, fl_closure, parse, pretty
from rll.semantics import UPWord, member, parse_word, winning_offsets
from oracles import (
    EvalPosition,
    ParityGame,
    build_eval_game,
    first_uncertified,
    gen_expr,
    gen_word,
    labelled_game,
    member_denotational,
    ref_eval_game,
    solve_spm,
    solve_zielonka,
)

AB = Alphabet("ab")


def w(text):
    return parse_word(text, AB)


def e(text):
    return parse(text, AB)


def assert_bitmasks_agree(word, expr, winner):
    """winning_offsets names solve_zielonka's `winner` (over
    build_eval_game(word, expr)) at every offset o and member k; returns
    the masks."""
    masks = winning_offsets((word,), expr)
    m = len(fl_closure(expr).members)
    assert len(masks) == m
    got = bytes((masks[k] >> o) & 1 for o in range(word.n_offsets()) for k in range(m))
    assert got == winner, (pretty(expr), str(word))
    return masks


# ---------------------------------------------------------------------------
# words


def test_word_parsing_and_printing():
    u = w("ab(ba)^w")
    assert u.stem == "ab" and u.loop == "ba"
    assert str(u) == "ab(ba)^w"
    assert str(w("(a)^w")) == "(a)^w"
    assert parse_word("  (ab)^w ", AB) == w("(ab)^w")
    assert repr(u) == "UPWord('ab', 'ba', 'ab')"
    # a value: equal and equally hashed by its fields, not by the language it denotes
    assert u == UPWord("ab", "ba", Alphabet("ab")) and {u: 1}[UPWord("ab", "ba", Alphabet("ab"))] == 1
    assert u != w("a(bba)^w") and u != UPWord("ab", "ba", Alphabet("abc"))


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
        assert fl_closure(expr).members[0] is canonical(expr)
        assert winner[0] == expected
        assert len(winner) == len(game.positions)
        assert solve_spm(game) == winner
        assert first_uncertified(game, winner, choice) is None
        assert_bitmasks_agree(word, expr, winner)


def test_large_games_agree_with_denotational_fixpoints():
    # six games of 2,000 to 25,000 positions over long words, too large for
    # solve_spm: the strategies must certify the winner at every position,
    # and the winner at every offset's root and at sampled positions o*m + k
    # must be membership of the suffix at o in fl.members[k]
    rng = random.Random(2580)
    seen = set()
    for target in (2000, 4000, 7000, 11000, 17000, 25000):
        alphabet = Alphabet(rng.choice(["ab", "abc"]))
        expr = gen_expr(rng, alphabet, 30)
        while len(fl_closure(expr).members) < target // 250:
            expr = rng.choice((Cap, Plus))(expr, gen_expr(rng, alphabet, 30))
        fl = fl_closure(expr)
        m = len(fl.members)
        n = target // m
        cut = rng.randint(n // 4, n // 2)
        loop_letters = rng.sample(alphabet, rng.randint(1, len(alphabet)))
        stem = "".join(rng.choice(alphabet) for _ in range(cut))
        loop = "".join(rng.choice(loop_letters) for _ in range(n - cut))
        word = UPWord(stem, loop, alphabet)
        game = build_eval_game(word, expr)
        assert 2000 <= len(game.positions) <= 25000
        winner, choice = solve_zielonka(game)
        assert first_uncertified(game, winner, choice) is None
        assert_bitmasks_agree(word, expr, winner)

        def suffix(o):
            if o < cut:
                return stem[o:], loop
            return "", loop[o - cut:] + loop[:o - cut]

        checks = [(o, 0) for o in range(n)] + [(rng.randrange(n), rng.randrange(m)) for _ in range(50)]
        for o, k in checks:
            expected = member_denotational(*suffix(o), fl.members[k])
            assert winner[o * m + k] == expected, (pretty(expr), stem, loop, o, k)
            seen.add(expected)
    assert seen == {True, False}


def test_bitmask_winners_agree_on_random_pairs():
    # over two and three letters, stems empty or not: the bitmask winners
    # equal the explicit solver's everywhere, and at offset 0 of the root
    # they are membership
    rng = random.Random(1998)
    empty_stems = 0
    for _ in range(3000):
        alphabet = Alphabet(rng.choice(["ab", "abc"]))
        expr = gen_expr(rng, alphabet, rng.randint(1, 8))
        stem, loop = gen_word(rng, alphabet)
        empty_stems += not stem
        word = UPWord(stem, loop, alphabet)
        winner, _ = solve_zielonka(build_eval_game(word, expr))
        masks = assert_bitmasks_agree(word, expr, winner)
        assert masks[0] & 1 == member_denotational(stem, loop, expr)
    assert empty_stems > 500


@pytest.mark.parametrize(
    "expr,word",
    [
        ("mu X. X", "ab(ba)^w"),
        ("nu X. X", "ab(ba)^w"),
        ("0", "(a)^w"),
        ("T", "b(a)^w"),
        ("c T", "ab(ab)^w"),  # c occurs nowhere in the word
        ("nu X. (c X + a X) & mu Y. (b Y + c T)", "(ab)^w"),
    ],
)
def test_bitmask_winners_agree_on_degenerate_members(expr, word):
    abc = Alphabet("abc")
    word, expr = parse_word(word, abc), parse(expr, abc)
    winner, _ = solve_zielonka(build_eval_game(word, expr))
    assert_bitmasks_agree(word, expr, winner)


ALT_6 = "nu X0. mu X1. nu X2. mu X3. nu X4. mu X5. (a X0 + b X1 + c X2 + d X3 + e X4 + f X5)"


@pytest.mark.parametrize(
    "stem,loop",
    [
        ("", "".join(c * 20 for c in "fedcba")),
        ("", "".join(c * 170 for c in "fedcba")),
        ("ab", "b" * 1023 + "a"),
    ],
    ids=["blocks-20", "blocks-170", "long-b-run"],
)
def test_bitmask_winners_agree_where_nested_iteration_blows_up(stem, loop):
    # block-structured loops under alternation depth 6: nested fixpoint
    # iteration over offset masks takes seconds here, Zielonka's recursion
    # over the same masks does not
    alphabet = Alphabet("abcdef")
    word, expr = UPWord(stem, loop, alphabet), parse(ALT_6, alphabet)
    winner, _ = solve_zielonka(build_eval_game(word, expr))
    assert_bitmasks_agree(word, expr, winner)
    assert member(word, expr)


def test_a_batch_of_words_solves_as_each_word_alone():
    # words laid end to end: word i's block of bits, from the sum of the
    # earlier words' offsets, is its own solve and the explicit solver's
    # winners.  Batches mix loop lengths 1 to 3 (a one-letter loop wraps by
    # a shift of 0), empty and nonempty stems and repeated words, and the
    # first batch holds one word
    rng = random.Random(4242)
    mixed = repeats = 0
    stems = set()
    for size in [1] + [rng.randint(2, 7) for _ in range(200)]:
        alphabet = Alphabet(rng.choice(["ab", "abc"]))
        expr = gen_expr(rng, alphabet, rng.randint(1, 7))
        pool = [UPWord(*gen_word(rng, alphabet), alphabet) for _ in range(rng.randint(1, size))]
        words = [rng.choice(pool) for _ in range(size)]
        mixed += len({len(word.loop) for word in words}) == 3
        repeats += len(set(words)) < size
        stems |= {bool(word.stem) for word in words}
        masks = winning_offsets(words, expr)
        base = 0
        for word in words:
            n = word.n_offsets()
            winner, _ = solve_zielonka(build_eval_game(word, expr))
            alone = assert_bitmasks_agree(word, expr, winner)
            assert [b >> base & (1 << n) - 1 for b in masks] == alone, (pretty(expr), [str(u) for u in words], str(word))
            base += n
        assert all(b >> base == 0 for b in masks)
    assert mixed > 10 and repeats > 50 and stems == {True, False}


def test_the_root_mask_reads_membership_of_every_suffix():
    # bit o of the root's mask is membership of the suffix at offset o,
    # which for an offset in the loop is the loop rotated to start there
    rng = random.Random(1618)
    for _ in range(300):
        expr = gen_expr(rng, AB, rng.randint(1, 7))
        stem, loop = gen_word(rng, AB)
        word = UPWord(stem, loop, AB)
        root = winning_offsets((word,), expr)[0]
        assert root >> word.n_offsets() == 0
        for o in range(word.n_offsets()):
            if o < len(stem):
                suffix = stem[o:], loop
            else:
                suffix = "", loop[o - len(stem):] + loop[:o - len(stem)]
            assert root >> o & 1 == member_denotational(*suffix, expr), (pretty(expr), stem, loop, o)
        assert (root & 1 == 1) == member(word, expr)


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
        # the dual game (owners swapped, priorities one higher) swaps the
        # winners, deadlocks included
        dual = ParityGame(bytes(1 - x for x in game.is_e), tuple(c + 1 for c in game.prio), game.out)
        assert solve_zielonka(dual)[0] == bytes(1 - x for x in winner)
        assert first_uncertified(game, winner, choice) is None


# ---------------------------------------------------------------------------
# the certificate flags planted faults


def _game(*rows):
    """A game from (owner, priority, moves) rows, one per position."""
    return ParityGame(bytes(o == "E" for o, _, _ in rows), tuple(c for _, c, _ in rows), tuple(m for _, _, m in rows))


def test_the_certificate_checks_every_cycle_not_only_the_least_priority():
    # Abelard owns every position; the SCC {0, 1, 2} has least priority 0,
    # but without position 0 Abelard loops between 1 and 2 on priority 1
    game = _game(("A", 0, (1,)), ("A", 1, (0, 2)), ("A", 1, (1,)))
    assert solve_zielonka(game)[0] == b"\0\0\0"
    assert first_uncertified(game, b"\1\1\1", [0, 0, 0]) == 1


@pytest.mark.parametrize(
    "rows,winner,choice,position",
    [
        # a choice that is not a move: 0 only loops on itself
        ([("E", 0, (0,)), ("E", 0, (1,))], b"\1\1", [1, 1], 0),
        # a choice that leaves Eloise's region for Abelard's position 1
        ([("E", 0, (0, 1)), ("E", 1, (1,))], b"\1\0", [1, 1], 0),
        # an Abelard move that escapes Eloise's claimed region at 0
        ([("A", 0, (0, 1)), ("A", 1, (1,))], b"\1\0", [0, 1], 0),
        # Eloise is stuck at 0 but is said to win there
        ([("E", 0, ())], b"\1", [0], 0),
        # Abelard is stuck at 0 but is said to win there
        ([("A", 1, ())], b"\0", [0], 0),
    ],
    ids=["not-a-move", "choice-leaves", "opponent-escapes", "eloise-stuck", "abelard-stuck"],
)
def test_the_certificate_flags_planted_faults(rows, winner, choice, position):
    game = _game(*rows)
    assert first_uncertified(game, winner, choice) == position
    right, strategy = solve_zielonka(game)
    assert right != winner or strategy != choice
    assert first_uncertified(game, right, strategy) is None


def test_the_certificate_flags_a_flipped_winner_at_the_root_and_the_last_position():
    # one flipped winner byte fails the check at that position, so the
    # least failing position is it or one of the positions that move to it
    rng = random.Random(31)
    for _ in range(300):
        game = build_eval_game(UPWord(*gen_word(rng, AB), AB), gen_expr(rng, AB, rng.randint(1, 8)))
        winner, choice = solve_zielonka(game)
        for p in (0, len(winner) - 1):
            flipped = winner[:p] + bytes([1 - winner[p]]) + winner[p + 1:]
            q = first_uncertified(game, flipped, choice)
            assert q is not None and (q == p or p in game.out[q]), (p, q)


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
    assert first_uncertified(g, b"", []) is None


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
        assert len(game.positions) == word.n_offsets() * len(fl.members)
        assert game.positions == range(len(game.positions))
        labels, ref = labelled_game(*ref_eval_game(word, expr))
        assert labels == tuple(EvalPosition(o, f) for o in range(word.n_offsets()) for f in fl.members)
        assert (game.is_e, game.prio, game.out) == (ref.is_e, ref.prio, ref.out)


def test_eval_game_shape_on_a_letter_mismatch():
    # at an offset whose letter differs, a letter position has no moves
    game = build_eval_game(w("(b)^w"), e("a 0"))
    assert fl_closure(e("a 0")).members[0] is e("a 0")
    assert game.is_e[0] == 1
    assert game.out[0] == ()
    winner, _ = solve_zielonka(game)
    assert winner[0] == 0


def test_unguarded_expressions_still_play():
    # mu X. X unfolds into itself forever on an odd priority, so Abelard wins
    # every position; nu X. X is the same loop with an even priority
    g0 = build_eval_game(w("(a)^w"), e("mu X. X"))
    assert not any(solve_zielonka(g0)[0])
    g1 = build_eval_game(w("(a)^w"), e("nu X. X"))
    assert all(solve_zielonka(g1)[0])
