import random

from rll.corpus import (
    ALIASES,
    ALPHABET,
    DECISIONS,
    EXPRESSIONS,
    MAX_LOOP,
    MAX_STEM,
    name_table,
    random_expression,
    run_suite,
    sample_word,
)
from rll.expr import ast_size, free_vars, is_guarded


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
