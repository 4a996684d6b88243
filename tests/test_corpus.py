import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rll.corpus
import rll.expr
import rll.semantics
from oracles import (
    gen_guarded_sequent,
    make_instance,
    mask_instances,
    ref_closed_form_failures,
    ref_complement,
    ref_fixpoint_offsets,
    ref_membership_mismatches,
    ref_random_expression,
    ref_saturation_instances,
    ref_soundness_violations,
    sequent_instances,
)
from rll.automaton import default_coloring
from rll.calculus import FormulaTable, parse_sequent
from rll.corpus import (
    ALIASES,
    ALPHABET,
    CLOSED_FORM_WORDS,
    CLOSED_FORMS,
    DECISIONS,
    EXPRESSIONS,
    MAX_LOOP,
    MAX_STEM,
    MEMBERSHIP_SAMPLES,
    SOUNDNESS_WORDS,
    closed_form_failures,
    membership_mismatches,
    name_table,
    random_expression,
    run_suite,
    sample_word,
    saturation_instances,
    soundness_violations,
)
from rll.proof import check_local
from rll.expr import Mu, Nu, ast_size, canonical, complement, fl_closure, free_vars, is_guarded, parse, pretty
from rll.semantics import parse_word, winning_offsets


def test_aliases_point_at_bundled_expressions():
    table = name_table()
    for alias, name in ALIASES.items():
        assert table[alias] == EXPRESSIONS[name]
    assert set(EXPRESSIONS) <= set(table)


def _derivation(derivation):
    """A derivation from a root `a 0 + b 0 |-`, principals given as text."""
    return {nid: (rule, principal if rule.startswith("h_") else parse(principal, ALPHABET), kids)
            for nid, (rule, principal, kids) in derivation.items()}


@pytest.mark.parametrize(
    "derivation, message",
    [
        # n9 and n8 are entries that the root never reaches, named in the derivation's order
        ({"n0": ("+-l", "a 0 + b 0", ("n1", "n2")), "n9": ("0-l", "0", ()), "n1": ("h_a", "a", ("n3",)),
          "n2": ("h_b", "b", ("n3",)), "n8": ("0-l", "0", ()), "n3": ("0-l", "0", ())},
         "unreachable nodes: n9, n8"),
        # h_b's child n9 has no entry
        ({"n0": ("+-l", "a 0 + b 0", ("n1", "n2")), "n1": ("h_a", "a", ("n3",)), "n2": ("h_b", "b", ("n9",)),
          "n3": ("0-l", "0", ())},
         "node n2 references unknown child 'n9'"),
    ],
    ids=["unreached-entries", "child-without-entry"],
)
def test_a_mis_stated_derivation_fails_to_build(derivation, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        rll.corpus._build_proof(parse_sequent("a 0 + b 0 |-", ALPHABET), _derivation(derivation))


@pytest.mark.parametrize(
    "derivation, message",
    [
        # +-l has two premisses, and both children are n1, which carries the first
        ({"n0": ("+-l", "a 0 + b 0", ("n1", "n1")), "n1": ("h_a", "a", ("n2",)), "n2": ("0-l", "0", ())},
         "node n0: premisses do not match the +-l schema for this conclusion"),
        # h_a has one premiss but lists no child
        ({"n0": ("+-l", "a 0 + b 0", ("n1", "n2")), "n1": ("h_a", "a", ()), "n2": ("h_b", "b", ("n3",)),
          "n3": ("0-l", "0", ())},
         "node n1: premisses do not match the h_a schema for this conclusion"),
    ],
    ids=["shared-child", "missing-child"],
)
def test_children_off_the_premisses_fail_the_local_check(derivation, message):
    p = rll.corpus._build_proof(parse_sequent("a 0 + b 0 |-", ALPHABET), _derivation(derivation))
    assert check_local(p) == [message]


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


def test_random_expressions_are_canonical_as_built():
    # the reference's draws, named by binder depth as canonical names them,
    # from the same random draws in the same order
    for seed in (3, 7, 8, 5150, 20260815, 20260816):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(MEMBERSHIP_SAMPLES):
            size = rng.randint(1, 12)
            assert ref.randint(1, 12) == size
            e = random_expression(rng, size)
            assert e is canonical(ref_random_expression(ref, size)), (seed, pretty(e))
            assert canonical(e) is e
            assert rng.getstate() == ref.getstate(), seed


def _subterms(e):
    yield e
    for k in (getattr(e, name) for name in ("left", "right", "body") if hasattr(e, name)):
        yield from _subterms(k)


def test_the_complement_of_a_canonical_term_is_built_canonical(monkeypatch):
    # the walk keeps every binder's name and depth and every free variable and
    # adds only closed b T branches, so it needs no renaming walk, and gives
    # the term that renaming the walk gives
    real = rll.expr.canonical
    calls = []
    kinds = {True: 0, False: 0}  # closed? -> canonical subterms complemented
    rng, ref = random.Random(7), random.Random(7)
    for _ in range(300):
        size = rng.randint(1, 12)
        ref.randint(1, 12)
        draw, user = random_expression(rng, size), ref_random_expression(ref, size)
        assert complement(user, ALPHABET) is ref_complement(user, ALPHABET)  # binders named as a user names them
        for t in dict.fromkeys(_subterms(draw)):
            if real(t) is not t:
                continue
            monkeypatch.setattr(rll.expr, "canonical", lambda e: calls.append(e) or real(e))
            c = complement(t, ALPHABET)
            monkeypatch.undo()
            assert calls == [] and c is ref_complement(t, ALPHABET) and real(c) is c, pretty(t)
            kinds[not free_vars(t)] += 1
    assert kinds[True] > 500 and kinds[False] > 100, kinds


def test_sampled_words_respect_their_bounds():
    rng = random.Random(11)
    for _ in range(100):
        w = sample_word(rng)
        assert len(w.stem) <= MAX_STEM and 1 <= len(w.loop) <= MAX_LOOP
        assert all(c in "ab" for c in w.stem + w.loop)


def test_suite_filtering_skips_unrelated_rows(monkeypatch):
    rows = run_suite(0, filter_text="proofs/none")
    assert [r.name for r in rows] == [
        "none-sub-all-unfold-left",
        "none-sub-all-unfold-right",
    ]
    assert all(r.ok for r in rows)
    # a row that is not wanted runs none of its work, and a batch that backs
    # two rows runs once
    batches = ("_build_proof", "complement", "decide", "check", "membership_mismatches", "closed_form_failures",
               "saturation_instances", "soundness_violations", "bound_failures")
    calls = dict.fromkeys(batches, 0)
    for name in batches:
        def counting(*args, real=getattr(rll.corpus, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(rll.corpus, name, counting)
    assert [r.name for r in run_suite(0, filter_text="bounds/")] == ["closure-size", "colouring"]
    assert calls == {**dict.fromkeys(batches, 0), "bound_failures": 1}, calls
    calls.update(dict.fromkeys(batches, 0))
    assert [r.name for r in run_suite(0, filter_text="soundness/")] == ["rule-soundness", "rule-invertibility"]
    assert calls == {**dict.fromkeys(batches, 0), "saturation_instances": 1, "soundness_violations": 1}, calls
    calls.update(dict.fromkeys(batches, 0))
    assert all(r.ok for r in run_suite(0))
    assert calls["bound_failures"] == 1 and calls["saturation_instances"] == calls["soundness_violations"] == 1, calls


DECISION_SEQUENTS = [s for _, s, _ in DECISIONS]


def _generated_sequents(seed: int, draws: int):
    """`draws` random guarded sequents."""
    rng = random.Random(seed)
    return [gen_guarded_sequent(rng, ALPHABET) for _ in range(draws)]


def _generated_instances(seed: int, draws: int):
    """The distinct rule instances that saturating `draws` random guarded
    sequents generates, in first-seen order."""
    return ref_saturation_instances(_generated_sequents(seed, draws))


@pytest.mark.parametrize("sequents", [DECISION_SEQUENTS, _generated_sequents(31, 12)], ids=["decisions", "generated"])
def test_the_mask_instances_are_the_sequent_instances_in_order(sequents):
    # one shared table numbers every sequent's closure, so a mask is exactly
    # a member set: deduping mask tuples dedups the instances by value, in
    # the same first-seen order
    table, instances = saturation_instances(sequents)
    assert table.formulas == FormulaTable({f for s in sequents for f in s.lhs | s.rhs}, ALPHABET).formulas
    assert sequent_instances(table, instances) == ref_saturation_instances(sequents)
    assert len(instances) > 50


def test_the_soundness_batch_matches_the_word_by_word_reference():
    # a broken copy keeps an instance's rule, conclusion and principal but
    # takes the premisses of a random instance of the same rule, so the
    # failures run into the thousands and must match in order; the bundled
    # languages ignore a word's first letters, the two letter rules added
    # here and the random guarded sequents' instances do not
    table, instances = mask_instances(ref_saturation_instances(DECISION_SEQUENTS) + (
        make_instance("h_a", parse_sequent("a b T |- a a T, a b b T", ALPHABET), "a"),
        make_instance("r-p", parse_sequent("|- a b T, b a T, b b 0", ALPHABET)),
    ) + _generated_instances(31, 12))
    by_rule = {}
    for inst in instances:
        by_rule.setdefault(inst[0], []).append(inst)
    rng = random.Random(2718)
    broken = tuple((rule, code, conclusion, rng.choice(by_rule[rule])[3]) for rule, code, conclusion, _ in instances)
    for seed in (0, 1):
        unsound, uninvertible = soundness_violations(table, instances + broken, seed)
        assert (unsound, uninvertible) == ref_soundness_violations(sequent_instances(table, instances + broken), seed)
        assert len(unsound) > 1000 and len(uninvertible) > 1000, (len(unsound), len(uninvertible))


def test_the_soundness_batch_solves_once_over_its_distinct_words(monkeypatch):
    # every formula's truth is read off one winning_offsets call over the
    # distinct sampled words, laid end to end in first-seen order; inf-a is
    # one of the formulas, and a lie about it at the first word's offset 0,
    # bit 0, fails the batch at that word alone
    table, instances = saturation_instances(DECISION_SEQUENTS)
    rng = random.Random(7)
    words = tuple(dict.fromkeys(sample_word(rng) for _ in range(SOUNDNESS_WORDS)))
    real = rll.corpus.winning_offsets
    calls = []

    def counting(ws, e):
        calls.append(tuple(ws))
        return real(ws, e)

    monkeypatch.setattr(rll.corpus, "winning_offsets", counting)
    assert soundness_violations(table, instances, 7) == ([], [])
    assert calls == [words] and len(words) == 94

    def lying(ws, e):
        masks = list(real(ws, e))
        masks[fl_closure(e).members.index(canonical(EXPRESSIONS["inf-a"]))] ^= 1
        return masks

    monkeypatch.setattr(rll.corpus, "winning_offsets", lying)
    unsound, uninvertible = soundness_violations(table, instances, 7)
    assert unsound and uninvertible, (unsound, uninvertible)
    assert all(f.endswith(" at %s" % words[0]) for f in unsound + uninvertible), (unsound, uninvertible)


def _lie_once(monkeypatch, name, call, lie):
    """Replace corpus.<name> by a copy that lies on its call-th call
    (numbered from 0).  winning_offsets and _fixpoint_offsets flip one bit
    of the list of masks they return, given as lie = (offset, index into
    the list), either counted from the end when negative; winning_offsets
    flips it in the slice of the last word of its batch.  complement
    returns its argument unchanged.  Returns the list that receives the
    arguments of that call."""
    real = getattr(rll.corpus, name)
    count = [0]
    calls = []

    def lying(*args):
        result = real(*args)
        if count[0] == call:
            calls.append(args)
            if name == "complement":
                result = args[0]
            else:
                o, k = lie
                result = list(result)
                *before, w = args[0] if name == "winning_offsets" else args[:1]
                result[k] ^= 1 << (sum(v.n_offsets() for v in before) + o % w.n_offsets())
        count[0] += 1
        return result

    monkeypatch.setattr(rll.corpus, name, lying)
    return calls


def _membership_samples(seed: int):
    """The (expression, word) samples of the membership row, in order."""
    rng = random.Random(seed)
    samples = []
    for _ in range(MEMBERSHIP_SAMPLES):
        e = canonical(random_expression(rng, rng.randint(1, 12)))
        samples.append((e, sample_word(rng)))
    return samples


# the two legs of the membership row: per distinct expression, winning_offsets
# solves the evaluation game over offset bitmasks of its distinct words laid
# end to end, and per distinct (expression, word) pair _fixpoint_offsets
# evaluates every closure member and then the complement of the root by
# Knaster-Tarski iteration; the masks must equal the members' values, and the
# root's must be the negation of the complement's.  A lie of the solver fails
# the fixpoint leg where it lies, and the dual leg too at the root; a lie of a
# member's value fails the fixpoint leg alone, and a lie of the complement's
# value, or a complement that returns the expression itself, the dual leg
# alone.  Every lie reaches exactly the samples that share the lied-on call:
# those of one (expression, word) pair, or of every word of the expression
# for complement.  Expression 10 of seed 3 in first-seen order, nu X. a T,
# has 3 closure members and three words; the lies fall on the last word,
# ba(abb)^w, whose slice starts at bit 8 of the batch and holds 5 offsets,
# and both truth values occur at its root.
LYING_EXPRESSION = 10


@pytest.mark.parametrize(
    "name,lie,at,legs",
    [
        ("winning_offsets", (0, 0), (0, 0), "fixpoint and dual"),
        ("winning_offsets", (-1, -1), (-1, -1), "fixpoint"),
        ("_fixpoint_offsets", (0, 0), (0, 0), "fixpoint"),
        ("_fixpoint_offsets", (-1, -2), (-1, -1), "fixpoint"),  # the last value is the complement's
        ("_fixpoint_offsets", (0, -1), (0, 0), "dual"),
        ("_fixpoint_offsets", (-1, -1), (-1, 0), "dual"),
        ("complement", None, (0, 0), "dual"),
    ],
    ids=["primary-root", "primary-last", "fixpoint-root", "fixpoint-last", "dual-root", "dual-last", "complement"],
)
def test_the_membership_row_fails_when_one_leg_lies(monkeypatch, name, lie, at, legs):
    samples = _membership_samples(3)
    rank = {}  # expression -> its number in first-seen order
    for f, _ in samples:
        rank.setdefault(f, len(rank))
    e = list(rank)[LYING_EXPRESSION]
    words = tuple(dict.fromkeys(v for f, v in samples if f is e))
    w = words[-1]
    # winning_offsets and complement run once per expression, _fixpoint_offsets
    # once per pair, expression by expression and word by word
    pairs = sorted(dict.fromkeys(samples), key=lambda pair: rank[pair[0]])
    call = pairs.index((e, w)) if name == "_fixpoint_offsets" else LYING_EXPRESSION
    assert pretty(e) == "nu X. a T" and len(words) == 3 and str(w) == "ba(abb)^w" and call in (10, 134)
    calls = _lie_once(monkeypatch, name, call, lie)
    mismatches = membership_mismatches(3)
    (args,) = calls
    members = fl_closure(e).members
    if name == "_fixpoint_offsets":
        assert args[0] == w and args[1][0] is e and len(args[1]) == len(members) + 1
    else:
        assert args == {"complement": (e, ALPHABET), "winning_offsets": (words, e)}[name]
    expected = []
    for f, v in samples:
        if f is e and (v == w or name == "complement"):
            o, k = at[0] % v.n_offsets(), at[1] % len(members)
            # game= quotes the solver's mask, which is a lie only when the solver lies
            game = (winning_offsets((v,), e)[k] >> o & 1 == 1) != (name == "winning_offsets")
            expected.append("%s on %s: at offset %d in %s, game=%s, failing: %s" % (
                pretty(e), v, o, pretty(members[k]), game, legs))
    assert len(expected) == (3 if name == "complement" else 1)
    assert mismatches == expected, mismatches
    monkeypatch.undo()
    # a filtered run_suite builds no other row's fixtures, so the lie falls on the same call
    _lie_once(monkeypatch, name, call, lie)
    (row,) = run_suite(3, "membership/three")
    assert row.name == "three-way-agreement" and not row.ok
    assert row.detail == "1000 samples; first disagreement: " + expected[0], row.detail


def test_the_membership_row_matches_the_sample_by_sample_reference(monkeypatch):
    # each expression's closure, complement and solve are shared by all its
    # samples; the reference redoes them per sample, one word per solve
    for seed in (*range(10), 20260815, 20260816):
        assert membership_mismatches(seed) == ref_membership_mismatches(seed) == [], seed
    # under a colouring fault both fail, at the same samples with the same text
    monkeypatch.setattr(rll.semantics, "default_coloring", _last_fixpoint_keeps_parity)
    for seed in (3, 7):
        mismatches = membership_mismatches(seed)
        assert mismatches and mismatches == ref_membership_mismatches(seed), seed


def test_the_fixpoint_semantics_matches_the_letter_by_letter_reference():
    # one letter table per word and one value per closed subterm give the
    # reference's masks, member by member and for the complement
    for seed in (3, 7):
        for e, w in dict.fromkeys(_membership_samples(seed)):
            terms = fl_closure(e).members + (complement(e, ALPHABET),)
            assert rll.corpus._fixpoint_offsets(w, terms) == ref_fixpoint_offsets(w, terms), (seed, pretty(e), str(w))


def test_the_membership_row_builds_few_terms():
    # a time-only pin: a row that renames each draw and each complement with
    # a canonical walk prints the same lines but makes 9,843 Expr constructor
    # calls on seed 7; the draws and their complements are canonical as
    # built.  Counted in a fresh process, whose intern table holds no draw
    script = """
import gc
import rll.expr
from rll.corpus import membership_mismatches
calls = 0
real = rll.expr.Expr.__new__
def counting(cls, *fields):
    global calls
    calls += 1
    return real(cls, *fields)
rll.expr.Expr.__new__ = counting
gc.disable()
try:
    assert membership_mismatches(7) == []
finally:
    gc.enable()
print(calls)
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(rll.corpus.__file__).resolve().parents[1]) + os.pathsep + env.get("PYTHONPATH", "")
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert int(r.stdout) <= 7200, r.stdout


def test_the_membership_row_solves_once_per_expression(monkeypatch):
    # one closure, complement and solve per distinct expression, the solve
    # over its distinct words in first-seen order; one fixpoint walk per pair
    samples = _membership_samples(7)
    words = {}
    for e, w in samples:
        words.setdefault(e, {}).setdefault(w, None)
    calls = {name: [] for name in ("fl_closure", "complement", "winning_offsets", "_fixpoint_offsets")}
    for name, log in calls.items():
        def counting(*args, real=getattr(rll.corpus, name), log=log):
            log.append(args)
            return real(*args)
        monkeypatch.setattr(rll.corpus, name, counting)
    assert membership_mismatches(7) == []
    assert [args[0] for args in calls["fl_closure"]] == [e for e, _ in calls["complement"]] == list(words)
    assert calls["winning_offsets"] == [(tuple(ws), e) for e, ws in words.items()]
    assert [(terms[0], w) for w, terms in calls["_fixpoint_offsets"]] == [(e, w) for e, ws in words.items() for w in ws]
    assert (len(words), len(calls["_fixpoint_offsets"])) == (394, 849)


def test_the_membership_row_catches_a_batch_layout_fault(monkeypatch):
    # a solve that is right for one word but leaks across the words of a
    # batch (here: the second word's offset 0 flips at the root) passes
    # member's layout and fails the row at a word of such a batch
    real = rll.corpus.winning_offsets
    batches = []

    def leaking(ws, e):
        masks = list(real(ws, e))
        if len(ws) > 1:
            batches.append((e, ws[1]))
            masks[0] ^= 1 << ws[0].n_offsets()
        return masks

    monkeypatch.setattr(rll.corpus, "winning_offsets", leaking)
    (row,) = run_suite(7, "membership/three")
    assert not row.ok and len(batches) > 1, row.detail
    found = re.fullmatch(r"1000 samples; first disagreement: (.+) on (\S+): at offset 0 in (.+), game=(True|False), "
                         r"failing: fixpoint and dual", row.detail)
    assert found, row.detail
    text, word, member, _ = found.groups()
    e, w = canonical(parse(text, ALPHABET)), parse_word(word, ALPHABET)
    assert (e, w) in batches and member == text, row.detail


def _last_fixpoint_keeps_parity(fl):
    """default_coloring with a planted fault: the fixpoint enumerated last
    keeps the colour before it instead of stepping to its own parity.
    Colours rise by one at each parity step, so when that step was taken
    the last fixpoint alone holds the top colour, and every member that
    holds it drops by one."""
    colours = default_coloring(fl)
    top = max(colours)
    if top and [c for f, c in zip(fl.members, colours) if isinstance(f, (Mu, Nu))].count(top) == 1:
        return tuple(c - 1 if c == top else c for c in colours)
    return colours


def test_the_membership_row_catches_a_colouring_fault(monkeypatch):
    # the solver reads the colouring; the fixpoint semantics does not
    monkeypatch.setattr(rll.semantics, "default_coloring", _last_fixpoint_keeps_parity)
    mismatches = membership_mismatches(7)
    assert any("fixpoint" in m.rpartition("failing: ")[2] for m in mismatches), mismatches


def test_the_closed_forms_match_the_member_by_member_reference(monkeypatch):
    for seed in (*range(10), 20260815, 20260816):
        assert closed_form_failures(seed) == ref_closed_form_failures(seed) == [], seed
    # one solve per constant, over the distinct sampled words in first-seen order
    rng = random.Random(7)
    words = [sample_word(rng) for _ in range(CLOSED_FORM_WORDS)]
    distinct = tuple(dict.fromkeys(words))
    real = rll.corpus.winning_offsets
    calls = []

    def counting(ws, e):
        calls.append((ws, e))
        return real(ws, e)

    monkeypatch.setattr(rll.corpus, "winning_offsets", counting)
    assert closed_form_failures(7) == []
    assert calls == [(distinct, EXPRESSIONS["all"]), (distinct, EXPRESSIONS["none"])] and len(distinct) == 40
    # a solver that lies at one word's offset 0, wherever the word lies in a
    # batch: both report it at each of its samples, for both constants
    lie = parse_word("b(a)^w", ALPHABET)
    assert words.count(lie) == 2 and distinct.index(lie) == 6
    assert all(text != str(lie) for text, _, _ in CLOSED_FORMS)

    def lying(ws, e):
        masks, base = list(real(ws, e)), 0
        for w in ws:
            if w == lie:
                masks[0] ^= 1 << base
            base += w.n_offsets()
        return masks

    monkeypatch.setattr(rll.corpus, "winning_offsets", lying)
    monkeypatch.setattr(rll.semantics, "winning_offsets", lying)
    expected = ["%s should be in the universal language" % lie, "%s should not be in the empty language" % lie] * 2
    assert closed_form_failures(7) == ref_closed_form_failures(7) == expected
