import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import rll.decide
from rll.calculus import FormulaTable, Sequent, parse_sequent
from rll.corpus import _PROOFS, ALPHABET, DECISIONS, EXPRESSIONS
from rll.decide import (
    BudgetExceededError,
    Proved,
    Refuted,
    UnguardedSequentError,
    decide,
    saturate,
    strategy_step,
)
from rll.expr import Alphabet, complement, parse, pretty
from rll.proof import check, check_local, serialize_proof
from rll.semantics import UPWord, member
from oracles import gen_guarded_sequent, make_instance, member_denotational, principal_of, ref_saturate, sequent_of
from golden import graphs, scale, sweep

AB = ALPHABET


def _s(text):
    return parse_sequent(text, AB)


def _step(text):
    """The rule instance that strategy_step chooses at a sequent, built
    through make_instance, so that the rule is one that applies there."""
    s = _s(text)
    table = FormulaTable(s.lhs | s.rhs, AB)
    rule, code = strategy_step(table, *table.masks(s))
    return make_instance(rule, s, principal_of(table, code))


def _assert_refutes(s, w):
    for e in s.lhs_sorted:
        assert member(w, e), (str(w), e)
    for f in s.rhs_sorted:
        assert not member(w, f), (str(w), f)


# ---------------------------------------------------------------------------
# strategy


def test_a_left_zero_closes_before_anything_else():
    inst = _step("0, a 0 |- T")
    assert inst.rule == "0-l"


def test_a_right_top_closes_next():
    inst = _step("a 0 |- T, mu X. a X")
    assert inst.rule == "⊤-r"


def test_the_least_nonletter_formula_is_unfolded_first():
    inst = _step("a 0, mu X. a X |- b 0")
    assert inst.rule == "μ-l" and inst.principal == parse("mu X. a X", AB)


def test_ties_between_sides_prefer_the_left():
    inst = _step("mu X. a X |- mu X. a X")
    assert inst.rule == "μ-l"


def test_two_distinct_head_letters_lead_to_a_left_partition():
    assert _step("a 0, b 0 |-").rule == "l-p"
    # remaining right formulas are weakened away first
    inst = _step("a 0, b 0 |- a 0")
    assert inst.rule == "r-w" and inst.principal == parse("a 0", AB)
    # and extra left letters beyond a differing pair go first of all
    assert _step("a 0, a T, b 0 |-").rule == "l-w"


def test_a_single_head_letter_strips_after_discarding_mismatches():
    inst = _step("a 0 |- b 0, a T")
    assert inst.rule == "r-w" and inst.principal == parse("b 0", AB)
    inst = _step("a 0 |- a T")
    assert inst.rule == "h_a" and inst.principal == "a"


def test_an_empty_left_side_partitions_on_the_right():
    assert _step("|- a 0").rule == "r-p"
    assert _step("|-").rule == "r-p"


# ---------------------------------------------------------------------------
# saturation


def test_saturation_builds_a_locally_valid_graph_rooted_at_n0():
    p = saturate(_s("mu X. a X + b X |- nu X. a X + b X"))
    assert p.root == 0 and p.order[0] == "n0"
    assert not check_local(p)
    assert sequent_of(p, 0) == _s("mu X. a X + b X |- nu X. a X + b X")


def test_saturation_is_deterministic():
    s = _s("nu X. mu Y. a X + b Y |- mu X. a X + b X + nu Y. b Y")
    assert serialize_proof(saturate(s)) == serialize_proof(saturate(s))


def test_saturation_respects_its_node_budget():
    with pytest.raises(RuntimeError, match="exceeded"):
        saturate(_s("mu X. a X + b X |- nu X. a X + b X"), max_nodes=3)


def _assert_saturates_as_the_reference(s, max_nodes=200000):
    """saturate(s) is ref_saturate(s) node for node: the same order, rule,
    principal, children and both cedents, or both exceed the budget."""
    try:
        nodes = ref_saturate(s, max_nodes)
    except BudgetExceededError:
        with pytest.raises(BudgetExceededError, match="exceeded %d sequents" % max_nodes):
            saturate(s, max_nodes)
        return "budget"
    p = saturate(s, max_nodes)
    assert p.order == tuple("n%d" % v for v in range(len(nodes))) and p.root == 0
    for v, (sequent, rule, principal, kids) in enumerate(nodes):
        assert sequent_of(p, v) == sequent, (v, str(sequent))
        assert (p.rule[v], principal_of(p.table, p.principal[v]), p.children[v]) == (rule, principal, kids), v
    return len(nodes)


def test_saturation_is_the_sequent_reference_on_the_corpus_and_the_scale_rows():
    for s in [s for _, s, _, _ in _PROOFS] + [s for _, s, _ in DECISIONS]:
        _assert_saturates_as_the_reference(s)
    sizes = {}
    for name in ("fin_c", "refuted-3"):
        letters, text = scale.ROWS[name]
        alphabet = Alphabet(letters)
        sizes[name] = _assert_saturates_as_the_reference(parse_sequent(scale.sequent_text(alphabet, text), alphabet))
    assert sizes == {"fin_c": 6409, "refuted-3": 534}


def test_saturation_is_the_sequent_reference_on_random_sequents():
    # the draws of tests/golden/graphs.py: 1,000 at the generator's defaults,
    # then 250 from its large band under its saturation budget
    n = 1000
    outcomes = []
    for seed in range(n + n // 4):
        rng = random.Random(seed)
        alphabet = Alphabet("abc" if seed % 2 else "ab")
        if seed < n:
            outcomes.append(_assert_saturates_as_the_reference(gen_guarded_sequent(rng, alphabet)))
        else:
            s = gen_guarded_sequent(rng, alphabet, graphs.LARGE_SIZE, graphs.LARGE_SIDE)
            outcomes.append(_assert_saturates_as_the_reference(s, graphs.LARGE_BUDGET))
    assert max(outcomes[:n]) < max(outcomes[n:]), "the large band draws the larger graphs"


# ---------------------------------------------------------------------------
# the decision procedure


def test_unguarded_inputs_are_rejected_up_front():
    with pytest.raises(UnguardedSequentError, match="not guarded"):
        decide(_s("mu X. X |-"))
    with pytest.raises(UnguardedSequentError):
        decide(_s("|- nu X. X + a X"))


@pytest.mark.parametrize("name, s, verdict", DECISIONS, ids=[d[0] for d in DECISIONS])
def test_the_bundled_decisions_come_out_as_recorded(name, s, verdict):
    out = decide(s)
    if verdict == "proved":
        assert isinstance(out, Proved)
        assert sequent_of(out.proof, out.proof.root) == s
        assert check(out.proof).ok
    else:
        assert isinstance(out, Refuted)
        _assert_refutes(s, out.word)


def test_decisions_are_reproducible_object_for_object():
    proved = _s("mu X. a X + b X + nu Y. b Y |- nu X. mu Y. b X + a Y")
    a, b = decide(proved), decide(proved)
    assert serialize_proof(a.proof) == serialize_proof(b.proof)
    refuted = _s("nu X. mu Y. a X + b Y |- mu X. a X + b X + nu Y. b Y")
    a, b = decide(refuted), decide(refuted)
    assert a.word == b.word


def test_countermodels_survive_an_independent_membership_check():
    for text in (
        "nu X. a X + b X |- nu X. mu Y. a X + b Y",
        "|- mu X. a X",
        "nu X. a X |- nu X. b X",
    ):
        s = _s(text)
        out = decide(s)
        assert isinstance(out, Refuted)
        _assert_refutes(s, out.word)


def test_an_expression_meets_and_joins_its_complement_as_expected():
    from rll.calculus import Sequent
    from rll.expr import Cap, Plus

    e = EXPRESSIONS["fin-a"]
    ce = complement(e, AB)
    total = decide(Sequent(set(), {Plus(e, ce)}, AB))
    assert isinstance(total, Proved) and check(total.proof).ok
    empty = decide(Sequent({Cap(e, ce)}, set(), AB))
    assert isinstance(empty, Proved) and check(empty.proof).ok


def _up_words(letters, max_length):
    """Every (stem, loop) with a nonempty loop and |stem| + |loop| <= max_length."""
    for length in range(1, max_length + 1):
        for word in itertools.product(letters, repeat=length):
            word = "".join(word)
            for cut in range(length):
                yield word[:cut], word[cut:]


def test_decide_agrees_with_the_denotational_oracle_on_random_sequents():
    """Refuted words re-check in member_denotational, and no short word
    refutes a Proved sequent; the oracle shares no code with decide."""
    rng = random.Random(20261021)
    words = {letters: list(_up_words(letters, 4)) for letters in ("ab", "abc")}

    def refutes(s, stem, loop):
        return all(member_denotational(stem, loop, e) for e in s.lhs_sorted) and not any(
            member_denotational(stem, loop, f) for f in s.rhs_sorted
        )

    proved = refuted = 0
    for _ in range(300):
        alphabet = Alphabet(rng.choice(("ab", "abc")))
        s = gen_guarded_sequent(
            rng, alphabet, max_size=rng.choice((6, 8, 10)), max_side=rng.choice((2, 3))
        )
        out = decide(s)
        if isinstance(out, Refuted):
            refuted += 1
            assert refutes(s, out.word.stem, out.word.loop), (s, str(out.word))
        else:
            proved += 1
            for stem, loop in words[str(alphabet)]:
                assert not refutes(s, stem, loop), (s, stem, loop)
    assert proved >= 50 and refuted >= 50  # both verdicts are well represented


def test_decide_agrees_with_the_denotational_oracle_on_every_sequent_of_small_terms():
    """Bounded-exhaustive: every l |- r over the 54 closed guarded terms of
    at most 3 AST nodes over ab, against member_denotational on the 98 words
    with |stem| + |loop| <= 4.  A countermodel re-checks in the oracle, and
    no such word refutes a proved sequent."""
    small = sweep.terms(3)
    words = list(_up_words("ab", 4))
    assert len(small) == 54 and len(words) == 98
    holds = {t: {w for w in words if member_denotational(*w, t)} for t in small}
    proved = 0
    for l in small:
        for r in small:
            out = decide(Sequent({l}, {r}, AB))
            if isinstance(out, Refuted):
                stem, loop = out.word.stem, out.word.loop
                assert member_denotational(stem, loop, l) and not member_denotational(stem, loop, r), (l, r)
            else:
                proved += 1
                assert holds[l] <= holds[r], (pretty(l), pretty(r))
    assert proved == 1843  # and 1,073 refuted


def test_member_and_complement_agree_with_the_denotational_oracle_on_every_small_term():
    """Bounded-exhaustive: each of the 318 closed guarded terms of at most 4
    AST nodes over ab, and its complement, on each of the 98 words with
    |stem| + |loop| <= 4.  The terms are distinct, and each is what parse
    reads from its printed text."""
    terms = sweep.terms(4)
    words = [UPWord(stem, loop, AB) for stem, loop in _up_words("ab", 4)]
    assert len(terms) == len(set(terms)) == 318
    for t in terms:
        assert parse(pretty(t), AB) is t
        c = complement(t, AB)
        for w in words:
            want = member_denotational(w.stem, w.loop, t)
            assert member(w, t) == want and member(w, c) != want, (pretty(t), str(w))


def test_deciding_and_rechecking_the_bundled_decisions_renames_only_at_entry():
    # a time-only pin: closure members and unfoldings are built canonical,
    # so the only canonical walks left are parse's and the Sequent check's,
    # at entry.  Letters renamed to p and q give terms that no import has
    # built, in a fresh process.  These rows make 512 Expr constructor
    # calls; renaming each unfolding, and each member that pretty and the
    # subformula order meet, with a walk of its own makes 23 more walks and
    # 776 calls
    script = """
import collections, gc, sys
import rll.expr
from rll.calculus import format_sequent, parse_sequent
from rll.corpus import DECISIONS
from rll.decide import Proved, decide
from rll.expr import Alphabet
from rll.proof import check, parse_proof, serialize_proof
calls, walks = 0, collections.Counter()
real_new, real_canonical = rll.expr.Expr.__new__, rll.expr.canonical
def counting_new(cls, *fields):
    global calls
    calls += 1
    return real_new(cls, *fields)
def counting_canonical(e):
    if e._canon is None:
        walks[sys._getframe(1).f_code.co_qualname] += 1
    return real_canonical(e)
rll.expr.Expr.__new__ = counting_new
for module in list(sys.modules.values()):
    if getattr(module, "canonical", None) is real_canonical:
        module.canonical = counting_canonical
gc.disable()
try:
    for _, s, verdict in DECISIONS:
        s = parse_sequent(format_sequent(s).translate(str.maketrans("ab", "pq")), Alphabet("pq"))
        result = decide(s)
        assert isinstance(result, Proved) == (verdict == "proved")
        if isinstance(result, Proved):
            assert check(parse_proof(serialize_proof(result.proof))).ok
finally:
    gc.enable()
print(calls, " ".join(walks))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(rll.decide.__file__).resolve().parents[1]) + os.pathsep + env.get("PYTHONPATH", "")
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    calls, *walkers = r.stdout.split()
    assert set(walkers) <= {"parse", "Sequent.__post_init__.<locals>.<genexpr>"}, walkers
    assert int(calls) <= 560, calls
