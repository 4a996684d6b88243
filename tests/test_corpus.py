import random
import re

import pytest

import rll.corpus
from oracles import ref_soundness_violations
from rll.calculus import RuleInstance, make_instance, parse_sequent
from rll.corpus import (
    ALIASES,
    ALPHABET,
    DECISIONS,
    EXPRESSIONS,
    MAX_LOOP,
    MAX_STEM,
    membership_mismatches,
    name_table,
    random_expression,
    run_suite,
    sample_word,
    saturation_instances,
    soundness_violations,
)
from rll.expr import ast_size, canonical, fl_closure, free_vars, is_guarded, parse, pretty
from rll.semantics import parse_word


def test_aliases_point_at_bundled_expressions():
    table = name_table()
    for alias, name in ALIASES.items():
        assert table[alias] == EXPRESSIONS[name]
    assert set(EXPRESSIONS) <= set(table)


def test_every_bundled_expression_is_guarded_except_the_bare_fixpoints():
    for name, e in EXPRESSIONS.items():
        assert is_guarded(e) == (name not in ("none", "all")), name


def test_decision_sequents_use_the_shared_alphabet():
    for name, s, verdict in DECISIONS:
        assert s.alphabet == ALPHABET, name
        assert verdict in ("proved", "refuted"), name


def test_random_expressions_are_closed_and_within_budget():
    rng = random.Random(5150)
    for _ in range(300):
        size = rng.randint(1, 12)
        e = random_expression(rng, size)
        assert not free_vars(e)
        assert ast_size(e) <= size


def test_sampled_words_respect_their_bounds():
    rng = random.Random(11)
    for _ in range(100):
        w = sample_word(rng)
        assert len(w.stem) <= MAX_STEM and 1 <= len(w.loop) <= MAX_LOOP
        assert all(c in "ab" for c in w.stem + w.loop)


def test_suite_filtering_skips_unrelated_rows():
    rows = run_suite(0, filter_text="proofs/none")
    assert [r.name for r in rows] == [
        "none-sub-all-unfold-left",
        "none-sub-all-unfold-right",
    ]
    assert all(r.ok for r in rows)


def test_the_soundness_batch_matches_the_word_by_word_reference():
    # a broken copy keeps an instance's rule, conclusion and principal but
    # takes the premisses of a random instance of the same rule, so the
    # failures run into the thousands and must match in order; the bundled
    # languages ignore a word's first letters, the two letter rules added
    # here do not
    instances = saturation_instances() + (
        make_instance("h_a", parse_sequent("a b T |- a a T, a b b T", ALPHABET), "a"),
        make_instance("r-p", parse_sequent("|- a b T, b a T, b b 0", ALPHABET)),
    )
    by_rule = {}
    for inst in instances:
        by_rule.setdefault(inst.rule, []).append(inst)
    rng = random.Random(2718)
    broken = tuple(
        RuleInstance(i.rule, i.conclusion, i.principal, rng.choice(by_rule[i.rule]).premisses)
        for i in instances
    )
    for seed in (0, 1):
        unsound, uninvertible = soundness_violations(instances + broken, seed)
        assert (unsound, uninvertible) == ref_soundness_violations(instances + broken, seed)
        assert len(unsound) > 1000 and len(uninvertible) > 1000, (len(unsound), len(uninvertible))


def _lie_once(monkeypatch, name, call, position):
    """Replace corpus.<name> by a copy that lies about one position on its
    call-th call (numbered from 0): solve_zielonka flips the position's
    winner byte, first_uncertified reports the position.  Returns the list
    that receives the game of that call."""
    real = getattr(rll.corpus, name)
    count = [0]
    games = []

    def lying(game, *args):
        result = real(game, *args)
        if count[0] == call:
            games.append(game)
            p = position % len(game.positions)
            if name == "first_uncertified":
                result = p
            else:
                winner, choice = result
                result = winner[:p] + bytes([1 - winner[p]]) + winner[p + 1:], choice
        count[0] += 1
        return result

    monkeypatch.setattr(rll.corpus, name, lying)
    return games


# the three legs of the membership row: per sample, solve_zielonka runs on
# the evaluation game and then on its dual, and first_uncertified checks
# the strategies of the first solve.  A flipped winner fails the
# certificate at its position or at one that moves there, and the dual at
# its position; a lie of the certificate or the dual fails that leg alone.
# Sample 10 of seed 3 is a game of 40 positions that both players win
# somewhere, and its last position has another one moving to it.
LYING_SAMPLE = 10


@pytest.mark.parametrize("position", [0, -1], ids=["root", "last"])
@pytest.mark.parametrize(
    "name,call,legs",
    [
        ("solve_zielonka", 2 * LYING_SAMPLE, "certificate and dual"),
        ("first_uncertified", LYING_SAMPLE, "certificate"),
        ("solve_zielonka", 2 * LYING_SAMPLE + 1, "dual"),
    ],
    ids=["primary", "certificate", "dual"],
)
def test_the_membership_row_fails_when_one_leg_lies(monkeypatch, name, call, legs, position):
    games = _lie_once(monkeypatch, name, call, position)
    (mismatch,) = membership_mismatches(3)
    found = re.fullmatch(r"(.+) on (\S+): at (offset \d+ in .+), game=(?:True|False), failing: (.+)", mismatch)
    assert found, mismatch
    text, word, where, failing = found.groups()
    game, members = games[0], fl_closure(canonical(parse(text, ALPHABET))).members
    assert len(game.positions) == parse_word(word, ALPHABET).n_offsets() * len(members)
    p = position % len(game.positions)
    # the first failing position, and the legs that fail there
    expected = {}
    if name == "solve_zielonka" and call % 2 == 0:
        expected = {q: "certificate" for q in game.positions if p in game.out[q]}
    expected[p] = legs
    at = [q for q in expected if where == "offset %d in %s" % (q // len(members), pretty(members[q % len(members)]))]
    assert len(at) == 1 and failing == expected[at[0]], mismatch
    monkeypatch.undo()
    _lie_once(monkeypatch, name, call, position)
    (row,) = run_suite(3, "membership/three")
    assert row.name == "three-way-agreement" and not row.ok
    assert row.detail == "1000 samples; first disagreement: " + mismatch, row.detail
