"""Sequents, rule application, validation, ancestry."""

import random

import pytest

import rll.calculus as calculus_module
from rll.corpus import proofs
from rll.expr import Alphabet, ParseError, expr_sort_key, parse
from rll.calculus import (
    PRINCIPAL_RULES,
    Sequent,
    canonical_rule_name,
    format_sequent,
    is_rule_name,
    parse_sequent,
    premiss_letters,
)
from rll.proof import build_trace_automaton, check_local
from rll.semantics import UPWord, member
from oracles import (
    RuleInstance,
    all_live,
    applicable_steps,
    gen_expr,
    gen_guarded_sequent,
    gen_word,
    graph_of,
    instances,
    make_instance,
    ref_grouped_ancestry,
    ref_immediate_ancestry,
    ref_numbered_states,
    ref_trace_automaton,
    validate_instance,
)

AB = Alphabet("ab")


def e(text):
    return parse(text, AB)


def seq(text):
    return parse_sequent(text, AB)


# ---------------------------------------------------------------------------
# sequents


def test_sequent_round_trip_and_set_semantics():
    s = seq("a 0, a 0, mu X. X |- T")
    assert len(s.lhs) == 2  # duplicates collapse
    assert parse_sequent(format_sequent(s), AB) == s
    assert format_sequent(seq("|-")) == "|-"
    assert format_sequent(seq("a 0 |-")) == "a 0 |-"
    assert format_sequent(seq("|- a 0")) == "|- a 0"


def test_a_formula_text_that_occurs_twice_in_a_sequent_is_parsed_once(monkeypatch):
    calls = []

    def counting_parse(text, alphabet, names=None):
        calls.append(text.strip())
        return parse(text, alphabet, names)

    monkeypatch.setattr(calculus_module, "parse", counting_parse)
    s = parse_sequent("nu Y. a Y, a T |- nu Y. a Y,  a T", AB)
    assert calls == ["nu Y. a Y", "a T"]
    assert s.lhs == s.rhs == {e("nu X. a X"), e("a T")}


def test_sequent_rejects_bad_input():
    with pytest.raises(ParseError):
        parse_sequent("a 0", AB)
    with pytest.raises(ParseError):
        parse_sequent("a |- b |- c", AB)
    with pytest.raises(ValueError):
        Sequent([parse("a X", AB)], [], AB)  # open formula
    with pytest.raises(ValueError):
        Sequent([parse("a c 0", Alphabet("abc"))], [], AB)  # stray letter


def _assert_built_as_checked(s):
    """s equals the sequent the checking constructor returns for its
    cedents, and its sorted cedents are its cedents sorted."""
    assert Sequent(s.lhs, s.rhs, s.alphabet) == s
    assert isinstance(s.lhs, frozenset) and isinstance(s.rhs, frozenset)
    assert s.lhs_sorted == tuple(sorted(s.lhs, key=expr_sort_key))
    assert s.rhs_sorted == tuple(sorted(s.rhs, key=expr_sort_key))


def _assert_same_sequent(q, s):
    """q and s are equal sequents: equal, with one hash, and one key."""
    assert q == s and hash(q) == hash(s) and {s: True}[q]
    assert (q.lhs_sorted, q.rhs_sorted) == (s.lhs_sorted, s.rhs_sorted) and format_sequent(q) == format_sequent(s)


def test_equal_sequents_compare_and_hash_equal():
    s = seq("a 0, mu X. a X + T |- nu Y. b Y")
    # reordered and duplicated formulas, alpha-variants, an equal alphabet
    _assert_same_sequent(seq("mu Z. a Z + T, a 0, a 0 |- nu X. b X"), s)
    _assert_same_sequent(Sequent([*s.lhs_sorted[::-1], *s.lhs], s.rhs_sorted, Alphabet("ab")), s)
    assert seq("a 0 |- nu Y. b Y") != s
    assert parse_sequent(format_sequent(s), Alphabet("abc")) != s
    assert Sequent(s.rhs, s.lhs, AB) != s  # the sides are not interchangeable
    rng = random.Random(24)
    for alphabet in (AB, Alphabet("abc")):
        for _ in range(200):
            q = gen_guarded_sequent(rng, alphabet)
            lhs, rhs = list(q.lhs) * 2, list(q.rhs)
            rng.shuffle(lhs)
            rng.shuffle(rhs)
            _assert_same_sequent(Sequent(lhs, rhs, Alphabet(str(alphabet))), q)
            _assert_same_sequent(parse_sequent(format_sequent(q), alphabet), q)


def test_alphabets_and_words_are_immutable_and_keep_their_sequents():
    s = seq("a 0, mu X. a X + T |- nu Y. b Y")
    ab = s.alphabet
    word = UPWord("a", "ab", ab)
    targets = [(ab, "letters"), (ab, "extra"), (word, "stem"), (word, "loop"), (word, "alphabet")]
    targets += [(s, "lhs"), (s, "lhs_sorted"), (s, "alphabet")]
    for value, name in targets:
        with pytest.raises(AttributeError):
            setattr(value, name, "c")
    with pytest.raises(TypeError):
        ab[0] = "c"
    assert ab == Alphabet("ab") and str(ab) == "ab" and tuple(ab) == ("a", "b")
    assert (word.stem, word.loop, word.alphabet) == ("a", "ab", Alphabet("ab"))
    assert Sequent(s.lhs, s.rhs, Alphabet("ab")) == s


def test_derived_premisses_equal_the_checked_sequents(monkeypatch):
    steps = []
    for alphabet in (AB, Alphabet("abc")):
        rng = random.Random(21)
        for _ in range(200):
            steps += applicable_steps(gen_guarded_sequent(rng, alphabet))
    graphs = [p for p, _ in proofs().values()]
    views = [instances(p) for p in graphs]
    steps += [inst for view in views for inst in view]
    assert {inst.rule for inst in steps} >= set(PRINCIPAL_RULES) | {"l-p", "r-p", "h_a", "h_b", "h_c"}
    built = []
    checked = Sequent.__post_init__

    def recording(s):
        checked(s)
        built.append(s)

    monkeypatch.setattr(Sequent, "__post_init__", recording)
    for p in graphs:
        assert check_local(p) == []
    assert built == []  # check_local compares mask pairs and builds no sequent
    for view in views:
        for inst in view:
            assert make_instance(inst.rule, inst.conclusion, inst.principal).premisses == inst.premisses
    assert len(built) == sum(len(inst.premisses) for view in views for inst in view)
    monkeypatch.undo()
    # the context-dropping +-l premisses that validate_instance accepts, read as masks
    degenerate = RuleInstance("+-l", seq("a 0 + b 0, T |- 0"), e("a 0 + b 0"), (seq("a 0, T |- 0"), seq("b 0 |- 0")))
    assert validate_instance(degenerate) is None
    for prem in [prem for inst in steps for prem in inst.premisses] + built:
        _assert_built_as_checked(prem)


def test_rule_name_aliases():
    assert canonical_rule_name("mu-l") == "μ-l"
    assert canonical_rule_name("cap-r") == "∩-r"
    assert canonical_rule_name("l-p") == "l-p"


# ---------------------------------------------------------------------------
# applicable steps: the worked examples


def test_steps_on_empty_versus_universal():
    steps = applicable_steps(seq("mu X. X |- nu X. X"))
    assert [i.rule for i in steps] == ["l-w", "r-w", "μ-l", "ν-r"]
    mu_l = steps[2]
    assert mu_l.premisses == (seq("mu X. X |- nu X. X"),)  # unfolds to itself


def test_steps_on_a_letter_clash():
    steps = applicable_steps(seq("a 0, b T |-"))
    assert [i.rule for i in steps] == ["l-p", "l-w", "l-w"]
    assert steps[0].premisses == ()


def test_steps_on_the_empty_sequent():
    steps = applicable_steps(seq("|-"))
    assert [i.rule for i in steps] == ["r-p"]
    assert steps[0].premisses == (seq("|-"), seq("|-"))


def test_letter_clash_needs_distinct_letters_and_bare_sides():
    assert "l-p" not in [i.rule for i in applicable_steps(seq("a 0, a T |-"))]
    assert "l-p" not in [i.rule for i in applicable_steps(seq("a 0, b T |- 0"))]
    assert "l-p" not in [i.rule for i in applicable_steps(seq("a 0, b T, b 0 |-"))]


def test_letter_strip_requires_a_common_head():
    assert "h_a" in [i.rule for i in applicable_steps(seq("a 0, a T |- a 0"))]
    assert "h_b" in [i.rule for i in applicable_steps(seq("b 0 |-"))]
    # mixed heads on the left, or an unmatched head on the right, block it
    for text in ["a 0, b 0 |-", "a 0 |- b 0", "|- a 0", "a 0, 0 |- a 0"]:
        assert not any(i.rule.startswith("h_") for i in applicable_steps(seq(text)))


def test_right_partition_collects_by_letter():
    steps = applicable_steps(seq("|- a 0, a T, b 0"))
    rp = [i for i in steps if i.rule == "r-p"][0]
    assert rp.premisses == (seq("|- 0, T"), seq("|- 0"))  # alphabet order


def test_every_sequent_has_a_step():
    rng = random.Random(11)
    for _ in range(200):
        lhs = [gen_expr(rng, AB, rng.randint(1, 4)) for _ in range(rng.randint(0, 3))]
        rhs = [gen_expr(rng, AB, rng.randint(1, 4)) for _ in range(rng.randint(0, 3))]
        s = Sequent(lhs, rhs, AB)
        assert applicable_steps(s), "no step applies to %s" % format_sequent(s)


def test_steps_are_deterministic_and_valid():
    rng = random.Random(12)
    for _ in range(100):
        lhs = [gen_expr(rng, AB, rng.randint(1, 4)) for _ in range(rng.randint(0, 2))]
        rhs = [gen_expr(rng, AB, rng.randint(1, 4)) for _ in range(rng.randint(0, 2))]
        s = Sequent(lhs, rhs, AB)
        steps = applicable_steps(s)
        assert steps == applicable_steps(s)
        assert len(set(steps)) == len(steps)
        for inst in steps:
            assert validate_instance(inst) is None
            assert inst.conclusion == s


# ---------------------------------------------------------------------------
# validation


def test_validation_side_conditions():
    # h_a on an empty left side
    bad = RuleInstance("h_a", seq("|- a 0"), "a", (seq("|- 0"),))
    assert "nonempty left side" in validate_instance(bad)
    # forged premiss
    bad = RuleInstance("h_a", seq("a 0 |-"), "a", (seq("T |-"),))
    assert validate_instance(bad) is not None
    # l-p needs distinct letters: the rule never concludes a same-letter pair
    bad = RuleInstance("l-p", seq("a 0, a T |-"), None, ())
    assert validate_instance(bad) is not None
    ok = make_instance("∩-l", seq("(a 0) & (b 0) |-"), e("(a 0) & (b 0)"))
    assert validate_instance(ok) is None


def test_validation_accepts_aliases_and_rejects_unknown_rules():
    inst = RuleInstance("mu-l", seq("mu X. X |-"), e("mu X. X"), (seq("mu X. X |-"),))
    assert validate_instance(inst) is None
    assert "unknown rule" in validate_instance(RuleInstance("cut", seq("|-"), None, ()))


def test_the_rule_table_names_every_rule_by_its_canonical_name():
    for rule in list(PRINCIPAL_RULES) + ["l-p", "r-p", "h_a", "h_z"]:
        assert is_rule_name(rule), rule
    for name in ["cut", "mu-l", "h", "", "l-p "]:
        assert not is_rule_name(name), name
    assert all(is_rule_name(canonical_rule_name(alias)) for alias in ["mu-l", "top-r", "cap-l"])


def test_contextfree_plus_is_a_degenerate_case_only():
    conc = seq("a 0 + b 0, T |- 0")
    p = e("a 0 + b 0")
    contexted = make_instance("+-l", conc, p)
    assert contexted.premisses == (seq("a 0, T |- 0"), seq("b 0, T |- 0"))
    degenerate = RuleInstance("+-l", conc, p, (seq("a 0, T |- 0"), seq("b 0 |- 0")))
    assert validate_instance(degenerate) is None
    # the relaxation does not swallow arbitrary premiss damage
    mangled = RuleInstance("+-l", conc, p, (seq("a 0 |- 0"), seq("b 0 |- 0")))
    assert validate_instance(mangled) is not None


# ---------------------------------------------------------------------------
# ancestry


def _descent(inst):
    """The descent that the trace automaton reads off inst through
    premiss_letters and auxiliaries, as {(premiss index, side, conclusion
    formula): premiss formulas in formula-number order}: the search steps
    of the initial states of a graph whose root carries inst over one leaf
    per premiss, each state named by ref_numbered_states."""
    leaves = [("n%d" % (j + 1), RuleInstance("l-p", prem, None, ()), ()) for j, prem in enumerate(inst.premisses)]
    p = graph_of([("n0", inst, tuple(nid for nid, _, _ in leaves))] + leaves, "n0")
    a = build_trace_automaton(p, all_live(p))
    numbered = ref_numbered_states(ref_trace_automaton(p), len(p.order))
    grouped = {}
    for k in a.initials:
        st = numbered[p.root][k]
        for j, child in enumerate(p.children[p.root]):
            row = a.reach[p.root][j][k]
            assert row >> len(numbered[child]) == 0
            found = [t for k2, t in enumerate(numbered[child]) if row >> k2 & 1]
            assert all(t.side == st.side for t in found)
            gs = sorted((t.formula for t in found if t.critical is None), key=p.table.number.__getitem__)
            if gs:
                grouped[j, st.side, st.formula] = tuple(gs)
    return grouped


def test_ancestry_of_an_unfolding():
    inst = make_instance("μ-l", seq("T, mu X. a X |- 0"), e("mu X. a X"))
    assert _descent(inst) == {
        (0, "L", e("mu X. a X")): (e("a mu X. a X"),),
        (0, "L", e("T")): (e("T"),),
        (0, "R", e("0")): (e("0"),),
    }


def test_ancestry_of_a_self_unfolding_records_both_edges():
    inst = make_instance("μ-l", seq("mu X. X |-"), e("mu X. X"))
    assert _descent(inst) == {(0, "L", e("mu X. X")): (e("mu X. X"),)}
    assert {(d.premiss_formula, d.conclusion_formula, d.kind) for d in ref_immediate_ancestry(inst)} == {
        (e("mu X. X"), e("mu X. X"), "principal"),
        (e("mu X. X"), e("mu X. X"), "identity"),
    }


def test_ancestry_of_the_letter_rules():
    h = make_instance("h_a", seq("a 0, a T |- a (mu X. X)"), "a")
    assert _descent(h) == {
        (0, "L", e("a 0")): (e("0"),),
        (0, "L", e("a T")): (e("T"),),
        (0, "R", e("a mu X. X")): (e("mu X. X"),),
    }
    rp = make_instance("r-p", seq("|- a 0, b T"))
    assert _descent(rp) == {
        (0, "R", e("a 0")): (e("0"),),
        (1, "R", e("b T")): (e("T"),),
    }


def test_ancestry_of_weakening_drops_the_principal():
    inst = make_instance("l-w", seq("0, T |- a 0"), e("T"))
    assert _descent(inst) == {
        (0, "L", e("0")): (e("0"),),
        (0, "R", e("a 0")): (e("a 0"),),
    }


def test_axioms_have_no_ancestry():
    for text, rule, principal in [
        ("0, T |- a 0", "0-l", e("0")),
        ("a 0 |- T", "⊤-r", e("T")),
        ("a 0, b 0 |-", "l-p", None),
    ]:
        assert _descent(make_instance(rule, seq(text), principal)) == {}


def _random_steps():
    """Every applicable rule instance of 150 seeded random sequents."""
    rng = random.Random(13)
    for _ in range(150):
        lhs = [gen_expr(rng, AB, rng.randint(1, 4)) for _ in range(rng.randint(0, 2))]
        rhs = [gen_expr(rng, AB, rng.randint(1, 4)) for _ in range(rng.randint(0, 2))]
        yield from applicable_steps(Sequent(lhs, rhs, AB))


def test_ancestry_edges_connect_the_actual_cedents():
    for inst in _random_steps():
        for (i, side, f), gs in _descent(inst).items():
            prem = inst.premisses[i]
            assert set(gs) <= (prem.lhs if side == "L" else prem.rhs)
            assert f in (inst.conclusion.lhs if side == "L" else inst.conclusion.rhs)


def test_ancestry_is_the_grouped_reference_with_sorted_values():
    for inst in _random_steps():
        anc = _descent(inst)
        assert anc == ref_grouped_ancestry(inst), inst
        for gs in anc.values():
            assert type(gs) is tuple and list(gs) == sorted(set(gs), key=expr_sort_key), inst


def test_premiss_letters_name_the_letter_each_premiss_strips():
    abc = Alphabet("abc")
    assert premiss_letters("h_a", AB) == ("a",)
    assert premiss_letters("r-p", abc) == ("a", "b", "c")
    assert premiss_letters("+-l", AB) is None


# ---------------------------------------------------------------------------
# semantics of the rules, spot-checked on sampled words


def _valid_at(s, w):
    if all(member(w, f) for f in s.lhs):
        return any(member(w, f) for f in s.rhs)
    return True


CORPUS_SEQUENTS = [
    "mu X. X |- nu X. X",
    "mu X. (a X + b X + nu Y. b Y), mu X. (a X + b X + nu Y. a Y) |-",
    "nu X. a X |- nu X. mu Y. (a X + b Y)",
    "|- mu X. (a X + b X + nu Y. b Y), nu X. mu Y. (a X + b Y)",
    "a 0 + b 0, T |- 0",
    "(a 0) & (b 0) |- a (nu X. X)",
    "a nu X. a X, a T |- a nu X. mu Y. (a X + b Y)",
    "|- a 0, a T, b 0",
    "0 |-",
    "|- T, mu X. X",
]


def test_rules_are_locally_sound_on_sampled_words():
    rng = random.Random(14)
    words = [UPWord(*gen_word(rng, AB), AB) for _ in range(12)]
    for text in CORPUS_SEQUENTS:
        s = seq(text)
        for inst in applicable_steps(s):
            for w in words:
                if inst.rule.startswith("h_"):
                    a = inst.rule[2:]
                    lifted = UPWord(a + w.stem, w.loop, AB)
                    if _valid_at(inst.premisses[0], w):
                        assert _valid_at(s, lifted)
                elif inst.rule == "r-p":
                    for i, c in enumerate(AB):
                        if _valid_at(inst.premisses[i], w):
                            assert _valid_at(s, UPWord(c + w.stem, w.loop, AB))
                else:
                    if all(_valid_at(p, w) for p in inst.premisses):
                        assert _valid_at(s, w)


def test_logical_and_partition_rules_are_invertible_on_sampled_words():
    rng = random.Random(15)
    words = [UPWord(*gen_word(rng, AB), AB) for _ in range(12)]
    invertible = {"0-l", "⊤-l", "+-l", "∩-l", "μ-l", "ν-l", "0-r", "⊤-r", "+-r", "∩-r", "μ-r", "ν-r"}
    for text in CORPUS_SEQUENTS:
        s = seq(text)
        for inst in applicable_steps(s):
            if inst.rule in invertible:
                for w in words:
                    if _valid_at(s, w):
                        for p in inst.premisses:
                            assert _valid_at(p, w)
            elif inst.rule.startswith("h_"):
                a = inst.rule[2:]
                for w in words:
                    if _valid_at(s, UPWord(a + w.stem, w.loop, AB)):
                        assert _valid_at(inst.premisses[0], w)
            elif inst.rule == "r-p":
                for w in words:
                    for i, c in enumerate(AB):
                        if _valid_at(s, UPWord(c + w.stem, w.loop, AB)):
                            assert _valid_at(inst.premisses[i], w)
